"""ReRAM crossbar substrate: bit-slicing, mapping and merging."""

from repro.crossbar.mapping import (
    DEFAULT_TOPOLOGY,
    CrossbarTopology,
    MappedMVMLayer,
    MappingFootprint,
)
from repro.crossbar.merge import (
    input_cycle_factors,
    reference_integer_matmul,
    shift_add_merge,
    weight_plane_factors,
)
from repro.crossbar.slicing import (
    bit_slice,
    num_slices,
    reconstruct_from_slices,
    slice_inputs_temporal,
    slice_weights_differential,
)

__all__ = [
    "CrossbarTopology",
    "DEFAULT_TOPOLOGY",
    "MappedMVMLayer",
    "MappingFootprint",
    "bit_slice",
    "input_cycle_factors",
    "num_slices",
    "reconstruct_from_slices",
    "reference_integer_matmul",
    "shift_add_merge",
    "slice_inputs_temporal",
    "slice_weights_differential",
    "weight_plane_factors",
]
