"""The repository benchmark: three workloads driven through the public API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` measures one workload from a fresh process and prints one
JSON result line; :mod:`perfbench.contract` declares the workloads and
metrics, :mod:`perfbench.workloads` what one call of each workload does,
:mod:`perfbench.worker` the timed child process and
:mod:`perfbench.spans`/:mod:`perfbench.probes` the traced run.
"""
