"""Finite-difference verification of tape gradients.

The oracle is central differences in float64: for a deterministic scalar
function f of the parameters, d f / d p_i is approximated by
(f(p + h e_i) - f(p - h e_i)) / 2h and compared against the gradient the
tape produced. Dropout must be disabled in f for the comparison to be
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import NumericError
from .tensor import Tape, Tensor, backward


@dataclass
class ParamReport:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    params: list[ParamReport]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    def summary(self) -> str:
        lines = [
            f"{'param':40s} {'max_rel_err':>12s} {'checked':>8s} {'status':>7s}"
        ]
        for p in self.params:
            status = "pass" if p.passed else "FAIL"
            lines.append(f"{p.name:40s} {p.max_rel_err:12.3e} {p.checked:8d} {status:>7s}")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    step: float = 1e-5,
    tolerance: float = 1e-4,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of f() against central finite differences.

    f is called with no arguments and must return a scalar Tensor computed
    from `params`; it is re-evaluated twice per checked coordinate, so pass
    max_coords_per_param to subsample coordinates on large models. The
    relative error is |analytic - numeric| / max(1, |numeric|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for name, p in params:
        p.zero_grad()
    tape = Tape()
    with tape:
        loss = f()
    if not np.isfinite(loss.data):
        raise NumericError(f"loss is not finite: {loss.data}")
    backward(loss, tape)

    reports: list[ParamReport] = []
    for name, p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(analytic)):
            raise NumericError(f"non-finite analytic gradient in parameter {name!r}")
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        for c in coords:
            c = int(c)
            orig = flat[c]
            flat[c] = orig + step
            f_plus = float(f().data)
            flat[c] = orig - step
            f_minus = float(f().data)
            flat[c] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite perturbed loss in parameter {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic.reshape(-1)[c]
            worst = max(worst, abs(a - numeric) / max(1.0, abs(numeric)))
        reports.append(
            ParamReport(
                name=name,
                max_rel_err=worst,
                checked=len(coords),
                passed=worst <= tolerance,
            )
        )
    return GradCheckReport(params=reports, tolerance=tolerance)
