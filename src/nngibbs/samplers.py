"""Gradient-based baseline samplers, Hamiltonian Monte Carlo and the
Metropolis-adjusted Langevin algorithm, and the chain runner every
sampler (Gibbs included) is iterated by.

HMC and MALA operate on a flat position vector through a single callable
that returns the log density and its gradient. No mass-matrix or
step-size adaptation: hyperparameters are fixed inputs, acceptance is
computed in log space, and a non-finite proposal density counts as a
rejection.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .kernels import RngStream

__all__ = [
    "HmcSettings",
    "MalaSettings",
    "ChainRun",
    "hmc_step",
    "mala_step",
    "run_chain",
]


@dataclass(frozen=True)
class HmcSettings:
    step_size: float
    leapfrog_steps: int

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")


@dataclass(frozen=True)
class MalaSettings:
    step_size: float

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")


def hmc_step(position: np.ndarray, target, settings: HmcSettings, rng: RngStream):
    """One HMC transition: (new position, accepted, energy error).

    Fresh standard-normal momentum, ``leapfrog_steps`` half-kick /
    drift / half-kick steps along the log-density gradient, then a
    Metropolis test on the total-energy change log(z) < H - H_prop with
    H = -log pi + |p|^2 / 2 evaluated before and after.

    The momentum and a float copy of ``position`` are updated in place,
    which is bitwise the out-of-place ``p = p + h * grad`` form, so
    ``target`` must keep no view of the position it is given.
    """
    gen = rng.generator
    eta = settings.step_size
    logp0, grad0 = target(position)
    p = gen.standard_normal(position.shape)
    energy0 = -logp0 + 0.5 * float(p @ p)

    x = position.astype(float)
    grad = grad0
    for _ in range(settings.leapfrog_steps):
        p += 0.5 * eta * grad
        x += eta * p
        logp, grad = target(x)
        p += 0.5 * eta * grad

    if not np.isfinite(logp):
        return position, False, np.inf
    energy1 = -logp + 0.5 * float(p @ p)
    err = energy1 - energy0
    if np.log(gen.uniform()) < energy0 - energy1:
        return x, True, err
    return position, False, err


def mala_step(position: np.ndarray, target, settings: MalaSettings, rng: RngStream):
    """One MALA transition: (new position, accepted).

    Proposal x' = x + eta grad log pi(x) + sqrt(2 eta) xi with the
    asymmetric-proposal Metropolis correction, all ratios in log space.
    ``grad0`` is held across the second ``target`` call, so each call
    must return a new gradient array.
    """
    gen = rng.generator
    eta = settings.step_size
    logp0, grad0 = target(position)
    xi = gen.standard_normal(position.shape)
    prop = position + eta * grad0
    prop += np.sqrt(2.0 * eta) * xi
    logp1, grad1 = target(prop)
    if not np.isfinite(logp1):
        return position, False
    fwd = prop - position
    fwd -= eta * grad0
    back = position - prop
    back -= eta * grad1
    log_q_fwd = -float(fwd @ fwd) / (4.0 * eta)
    log_q_back = -float(back @ back) / (4.0 * eta)
    log_alpha = logp1 - logp0 + log_q_back - log_q_fwd
    if np.log(gen.uniform()) < log_alpha:
        return prop, True
    return position, False


@dataclass
class ChainRun:
    """Recorded trajectory of one Markov chain.

    ``times`` are the step counts of the records, ``wall`` the seconds
    from the start of the run to each record, and ``steps`` the steps
    actually taken.
    """

    times: np.ndarray
    wall: np.ndarray
    values: np.ndarray
    accepted: int
    steps: int
    final_position: object

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps if self.steps else float("nan")


def run_chain(step, position, n_steps: int, observer=None, spacing: int = 1, deadline: float | None = None) -> ChainRun:
    """Iterate ``step`` from ``position``, recording every ``spacing`` steps.

    ``step`` maps a state to ``(next state, accepted)``; a Gibbs sweep
    always counts as accepted. ``observer(state, rate)`` also receives the
    running acceptance rate, 0.0 at t=0. The initial state is always
    recorded; afterwards records land on step multiples of ``spacing``.
    Once the ``time.monotonic()`` ``deadline`` has passed, the last step
    taken is recorded (unless it just was) and the chain stops. The
    accepted/total bookkeeping is exact.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if observer is None:
        observer = lambda x, rate: 0.0
    start = time.monotonic()
    times, wall, values = [], [], []

    def record(t, x, rate):
        times.append(t)
        wall.append(time.monotonic() - start)
        values.append(observer(x, rate))

    x = position
    record(0, x, 0.0)
    accepted = 0
    for t in range(1, n_steps + 1):
        x, ok = step(x)
        accepted += bool(ok)
        due = t % spacing == 0
        if due:
            record(t, x, accepted / t)
        if deadline is not None and time.monotonic() > deadline:
            if not due:
                record(t, x, accepted / t)
            break
    return ChainRun(
        times=np.asarray(times),
        wall=np.asarray(wall),
        values=np.asarray(values, dtype=float),
        accepted=accepted,
        steps=t,
        final_position=x,
    )
