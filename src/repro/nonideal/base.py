"""Foundations of the device non-ideality subsystem.

The design constraint that shapes everything here is **engine bit-parity**:
the fast (fused) and reference (per-cycle/segment loop) simulation engines
must produce *bit-identical* outputs under noise, even though they traverse
the datapath in different block orders.  A shared mutable RNG stream cannot
provide that — whichever engine asks first changes what the other sees — so
every stochastic draw in this subsystem is **counter-based and keyed**: the
noise applied to a bit-line element is a pure function of

    (stack seed, model index, layer, chunk, segment, input cycle, position)

derived through :func:`repro.utils.rng.derive_seed`.  Both engines visit the
same logical blocks (identical shapes and coordinates, merely in a different
order), so they reconstruct the same noise sample for sample.

Two lifetimes of randomness are distinguished:

* **static** draws model device state fixed at programming time (conductance
  variation, stuck-at fault maps).  Keyed by ``(layer, segment)`` only and
  cached on the bound model, so every input cycle, chunk and trial of one
  run sees the same device.
* **per-read** draws model noise regenerated on every access (read noise).
  Keyed additionally by ``(chunk, segment, cycle)``, so each conversion
  batch sees a fresh — but reproducible — sample.

A model is *bound* to a layer before use: :meth:`NonIdealityModel.bind`
receives the layer's mapping geometry (:class:`LayerNoiseContext`) and
returns a :class:`BoundModel` holding any pre-drawn static state.  Bound
models expose three capabilities the engines exploit:

* ``perturb`` — perturb one raw bit-line block (works for every model),
  in place in a float64 buffer the owning
  :class:`~repro.nonideal.stack.LayerNoiseState` hands it;
* ``integer_domain`` — the perturbation maps exact integer bit-line values
  to exact integer values, so the fast engine can stay on its integer-LUT
  conversion path (with the LUT bound enlarged to ``output_bound``);
* ``value_map`` — the perturbation is a pure per-value integer map (no
  column or RNG dependence), so the fast engine can fold it into the ADC
  transfer LUT (:func:`repro.adc.lut.compose_transfer_lut`) and pay *zero*
  per-element cost.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import derive_seed, new_rng


@dataclasses.dataclass(frozen=True)
class LayerNoiseContext:
    """Everything a model may key its draws on for one mapped layer.

    Attributes
    ----------
    layer:
        Name of the MVM layer (part of every derived seed).
    seed:
        Base seed of the owning :class:`~repro.nonideal.stack.NonIdealityStack`.
    model_index:
        Position of the model in the stack (separates the streams of two
        instances of the same model class).
    crossbar_size:
        Physical array width (used e.g. by IR-drop column positions).
    segment_sizes:
        Rows of each word-line segment (cell populations for fault draws).
    columns:
        Bit lines per segment block (``2 · planes · out_features``).
    max_bitline:
        Largest ideal bit-line value of the layer (LUT bound, and the
        reference scale for ``relative`` noise magnitudes).
    """

    layer: str
    seed: int
    model_index: int
    crossbar_size: int
    segment_sizes: Tuple[int, ...]
    columns: int
    max_bitline: int

    def draw_key(self, *labels) -> int:
        """The derived seed for ``labels`` under this context.

        This integer *is* the keyed-sampling counter: feeding it to
        :func:`repro.utils.rng.new_rng` (as :meth:`rng` does) yields the
        same stream in every engine and batch layout.
        """
        return derive_seed(self.seed, "nonideal", self.model_index, self.layer, *labels)

    def rng(self, *labels) -> np.random.Generator:
        """A fresh generator for ``labels``, keyed under this context.

        The same ``(seed, model_index, layer, labels)`` tuple always yields
        the same stream — this is what makes the subsystem's sampling
        *counter-based* rather than sequential.
        """
        return new_rng(self.draw_key(*labels))


class BoundModel:
    """One non-ideality model bound to one mapped layer.

    The base implementation is the identity; models override the pieces they
    need.

    ``perturb`` receives a float64 block that the owning
    :class:`~repro.nonideal.stack.LayerNoiseState` owns for the length of
    the call: a copy of the engine's raw block, never the raw block itself.
    A model may perturb it in place and return it (the built-in models do,
    so a block costs no temporaries), or return a new float64 array of the
    same shape.  Whatever it returns is owned by the state from then on:
    later models in the stack may modify it in place, so a model must never
    return an array it keeps (a cached constant, say).
    """

    def __init__(self, ctx: LayerNoiseContext) -> None:
        self.ctx = ctx

    @property
    def integer_domain(self) -> bool:
        """True when ``perturb`` maps exact integers to exact integers."""
        return False

    def output_bound(self, input_bound: int) -> int:
        """Upper bound of perturbed values given inputs in ``0 … input_bound``.

        Only meaningful for integer-domain models (sizes the conversion LUT).
        """
        return int(input_bound)

    def value_map(self, input_bound: int) -> Optional[np.ndarray]:
        """Pure per-value integer map over ``0 … input_bound``, or ``None``.

        When every model of a stack publishes a map, the fast engine composes
        them into the ADC transfer LUT instead of touching the data blocks.
        The map must satisfy ``map[v] == perturb(v)`` for every integer ``v``.
        """
        return None

    def perturb(
        self, values: np.ndarray, segment: int, cycle: int, chunk: int
    ) -> np.ndarray:
        """Perturb one float64 bit-line block of shape ``(rows, columns)``
        (in place allowed; see the class docstring)."""
        return values


class NonIdealityModel:
    """Base class of all registered device non-ideality models.

    Subclasses are immutable parameter holders; all state derived from a
    layer (static device draws, caches) lives on the :class:`BoundModel`
    returned by :meth:`bind`.  ``name`` is the registry key and ``params``
    must round-trip through the constructor:
    ``type(m)(**m.params())`` ≡ ``m``.
    """

    name: ClassVar[str] = ""

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def spec(self) -> Dict[str, object]:
        """Serializable description; inverse of
        :func:`repro.nonideal.registry.build_model`."""
        return {"model": self.name, **self.params()}

    def bind(self, ctx: LayerNoiseContext) -> BoundModel:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"
