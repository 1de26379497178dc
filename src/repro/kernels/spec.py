"""Kernel model descriptors.

The batched kernels do not run :class:`~repro.diffusion.base.DiffusionModel`
objects — they run *world-sample semantics*: a model is reduced to the
random world it samples (live edges, thresholds, or pick tables) plus a
deterministic race consuming that world. :class:`KernelSpec` is the small
value object naming which semantics to run; :func:`spec_for_model` maps
the library's model objects onto it (and refuses models that have no
batched equivalent, such as the weighted-OPOAO extension).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import UnsupportedModelError

__all__ = ["KernelSpec", "spec_for_model", "KERNEL_KINDS"]

#: Model kinds the kernel backends implement.
KERNEL_KINDS = ("ic", "lt", "opoao", "doam")


class KernelSpec:
    """Which batched semantics to run, plus its scalar parameters.

    Attributes:
        kind: one of :data:`KERNEL_KINDS`.
        probability: IC's uniform edge probability; ``None`` under
            weighted IC (each edge's weight is its probability).
    """

    __slots__ = ("kind", "probability")

    def __init__(self, kind: str, probability: Optional[float] = None) -> None:
        if kind not in KERNEL_KINDS:
            raise UnsupportedModelError(
                f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self.probability = probability

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KernelSpec)
            and self.kind == other.kind
            and self.probability == other.probability
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.probability))

    def __repr__(self) -> str:
        if self.kind == "ic":
            return f"KernelSpec('ic', probability={self.probability})"
        return f"KernelSpec({self.kind!r})"


def spec_for_model(model) -> KernelSpec:
    """Reduce a :class:`DiffusionModel` instance to its kernel spec.

    Raises:
        UnsupportedModelError: for models the kernels do not implement
            (weighted OPOAO, the no-repeat OPOAO variant, timestamped
            models, ...). Callers wanting a graceful fallback catch this
            and keep the per-run Python path.
    """
    from repro.diffusion.doam import DOAMModel
    from repro.diffusion.ic import CompetitiveICModel
    from repro.diffusion.lt import CompetitiveLTModel
    from repro.diffusion.opoao import OPOAOModel

    if isinstance(model, DOAMModel):
        return KernelSpec("doam")
    if isinstance(model, CompetitiveICModel):
        return KernelSpec("ic", probability=model.probability)
    if isinstance(model, CompetitiveLTModel):
        return KernelSpec("lt")
    if isinstance(model, OPOAOModel):
        if model.weighted:
            raise UnsupportedModelError(
                "weighted OPOAO has no batched kernel; use the per-run model"
            )
        return KernelSpec("opoao")
    raise UnsupportedModelError(
        f"model {model!r} has no batched kernel equivalent"
    )
