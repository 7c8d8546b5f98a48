"""Hyperparameters the convergence analysis prescribes at a target accuracy.

From the network's rho, the Lipschitz constant, d, delta, m and the initial
smoothed-objective gap, the analysis fixes eta and the iteration count, and
for the variance-reduced method the batch, mega-batch, period and restart
gossip rounds. The optimizers never read this module; the CLI's ``--params
theorem:<epsilon>`` turns a prescription into a run configuration. A complete
graph has rho = 0, outside the analysis' (0, 1): floor it at `RHO_FLOOR`.
"""

import math
import warnings
from dataclasses import dataclass

from .algorithms import _require_positive
from .errors import InvalidParameter
from .smoothing import sigma_squared, surrogate_smoothness

__all__ = ["RHO_FLOOR", "TheoremParams", "theorem_params_dgfm", "theorem_params_dgfm_plus"]

RHO_FLOOR = 1e-6


@dataclass(frozen=True)
class TheoremParams:
    """Analysis-prescribed hyperparameters for a target accuracy epsilon.

    ``beta_x``, ``beta_y``, ``alpha_1``, ``alpha_2`` are Lyapunov weights:
    they document the analysis and are never consumed by the optimizer
    loops. ``iterations_bound`` is the exact (unrounded) lower bound that
    ``iterations`` rounds up.
    """

    eta: float
    beta_x: float
    beta_y: float
    alpha_1: float
    alpha_2: float
    iterations: int
    iterations_bound: float
    sigma_sq: float
    l_delta: float
    batch: int | None = None
    mega_batch: int | None = None
    period: int | None = None
    cycles: int | None = None
    gossip_rounds: int | None = None

    def echo(self):
        """JSON-able summary for run metadata."""
        out = {
            "eta": self.eta,
            "iterations": self.iterations,
            "alpha_1": self.alpha_1,
            "beta_x": self.beta_x,
            "beta_y": self.beta_y,
        }
        for name in ("batch", "mega_batch", "period", "cycles", "gossip_rounds"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c):
    if not 0.0 < rho < 1.0:
        raise InvalidParameter(
            "rho must lie strictly inside (0, 1); a fully connected topology has "
            "rho = 0, pass a tiny floor such as 1e-6 instead"
        )
    _require_positive(lipschitz=lipschitz, delta=delta, epsilon=epsilon, value_gap=value_gap, c=c)
    if d < 1 or m < 1:
        raise InvalidParameter(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    if epsilon > 1e6:
        raise InvalidParameter(f"epsilon {epsilon} is beyond any sensible accuracy target")
    return max(rho, RHO_FLOOR)


def theorem_params_dgfm(rho, lipschitz, d, delta, epsilon, m, value_gap, c=1.0):
    """Prescribed (eta, K, Lyapunov weights) for the single-pair method.

    ``value_gap`` bounds the initial smoothed-objective gap; ``c`` is the
    (unspecified) leading constant of the surrogate smoothness, default 1.
    """
    rho = _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c)
    sigma_sq = sigma_squared(d, lipschitz)
    sigma = math.sqrt(sigma_sq)
    l_delta = surrogate_smoothness(d, lipschitz, delta, c)
    r2 = rho * rho
    eta = min(
        (1.0 - r2) ** 2 / (48.0 * sigma * (1.0 + r2) * r2) * epsilon / l_delta,
        epsilon**2 / (32.0 * l_delta * (sigma_sq + lipschitz)),
        8.0 * math.sqrt(6.0 * m * sigma_sq) / (epsilon * l_delta),
    )
    beta_y = (1.0 - r2) * epsilon**2 / (384.0 * sigma_sq * r2 * (1.0 + r2)) * eta / m
    beta_x = 1152.0 * sigma_sq * r2 * (1.0 + r2) / (1.0 - r2) ** 2 * l_delta**2 / epsilon**2 * beta_y
    alpha = (1.0 - r2) / (2.0 * r2)
    k_bound = max(
        2.0 * (sigma_sq + lipschitz**2) * (1.0 - r2) / (3.0 * m * sigma_sq * (1.0 + r2)),
        32.0 * value_gap / (epsilon**2 * eta),
    )
    return TheoremParams(
        eta=eta,
        beta_x=beta_x,
        beta_y=beta_y,
        alpha_1=alpha,
        alpha_2=alpha,
        iterations=math.ceil(k_bound),
        iterations_bound=k_bound,
        sigma_sq=sigma_sq,
        l_delta=l_delta,
    )


def theorem_params_dgfm_plus(rho, lipschitz, d, delta, epsilon, m, value_gap, c=1.0):
    """Prescribed (eta, batches, period, gossip rounds) for the
    variance-reduced method.

    The gossip-round prescription turns nonpositive for moderate epsilon;
    in that regime it is clamped to 1 and a ``RuntimeWarning`` is emitted
    rather than guessing intent. Batch sizes and counts are rounded up to
    integers.
    """
    rho = _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c)
    sigma_sq = sigma_squared(d, lipschitz)
    l_delta = surrogate_smoothness(d, lipschitz, delta, c)
    r2 = rho * rho
    period = math.ceil(c**2 / (2.0 * delta))
    eta_1 = (1.0 - r2) ** 1.5 * math.sqrt(delta) / (r2 * math.sqrt(1.0 + r2) * math.sqrt(d) * math.sqrt(24.0))
    eta_2 = (
        1.0
        / (2.0 * math.sqrt(3.0 * d * period))
        * (
            lipschitz**2 / (m * epsilon)
            + 3.0 * (1.0 - r2) / (2.0 * c**2)
            * (c**2 * lipschitz**2 / ((1.0 - r2) * delta) + 2.0 * r2 * lipschitz**2 * m)
        )
        ** -0.5
    )
    eta_3 = 0.5 / l_delta
    eta = min(eta_1, eta_2, eta_3)
    beta_y = (1.0 - r2) * delta * eta / (2.0 * rho**4 * c**2 * m) * (c**2 / (2.0 * delta) + 2.0 * period)
    beta_x = (1.0 - r2) ** 2 / (2.0 * r2 * (1.0 + r2) * eta**2) * beta_y
    batch = math.ceil(d / (m * epsilon))
    mega_batch = math.ceil(sigma_sq / (12.0 * epsilon**2))
    gossip_exact = (
        math.log(c**2 * epsilon) - math.log(36.0 * (sigma_sq + lipschitz**2) * (1.0 - r2))
    ) / math.log(rho) + 2.0
    gossip_rounds = math.ceil(gossip_exact)
    if gossip_rounds < 1:
        warnings.warn(
            f"gossip-round prescription {gossip_exact:.3f} is below 1 at epsilon={epsilon}; "
            "clamping to 1",
            RuntimeWarning,
            stacklevel=2,
        )
        gossip_rounds = 1
    cycles = math.ceil(24.0 * value_gap * delta / (epsilon**2 * eta * c**2))
    k_bound = float(cycles * period)
    alpha = (1.0 - r2) / (2.0 * r2)
    return TheoremParams(
        eta=eta,
        beta_x=beta_x,
        beta_y=beta_y,
        alpha_1=alpha,
        alpha_2=alpha,
        iterations=cycles * period,
        iterations_bound=k_bound,
        sigma_sq=sigma_sq,
        l_delta=l_delta,
        batch=batch,
        mega_batch=mega_batch,
        period=period,
        cycles=cycles,
        gossip_rounds=gossip_rounds,
    )
