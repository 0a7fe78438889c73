"""Stochastic function-value and gradient oracles.

The solver never sees exact objective values or gradients directly; it
queries an oracle that adds centered Gaussian noise:

* zeroth order:  fbar(x) = f(x) + eps_f_noise * z,          z ~ N(0, 1)
* first order:   gbar(x) = grad f(x) + (eps_g_noise / sqrt(n)) * z,
                 z ~ N(0, I_n)

so that E ||gbar - grad f||^2 = eps_g_noise^2 independently of n. With
both noise scales zero the oracles are exact pass-throughs. Every call
draws fresh noise and bumps the corresponding counter; constraint values
are always exact and are not counted here.

Streams are counter-based (Philox) and keyed by (seed, stream_id), so
runs with equal configuration reproduce bit-identical traces and
distinct stream ids are independent by construction. Use
:func:`derive_stream` to map benchmark coordinates to a stream id.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .problems import Problem

_UINT64_MAX = 2**64 - 1


def is_int(value) -> bool:
    """An int that is not a bool (bool is an int subclass; True must not pass for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class OracleConfig:
    """Noise scales plus RNG identity for one run."""

    eps_f_noise: float = 0.0
    eps_g_noise: float = 0.0
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if not (self.eps_f_noise >= 0.0 and np.isfinite(self.eps_f_noise)):
            raise ValueError("eps_f_noise must be finite and >= 0")
        if not (self.eps_g_noise >= 0.0 and np.isfinite(self.eps_g_noise)):
            raise ValueError("eps_g_noise must be finite and >= 0")
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not is_int(value) or not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must be an integer in [0, 2^64)")


@dataclass
class EvalCounters:
    """Cumulative oracle call counts for one run."""

    zeroth_calls: int = 0
    first_calls: int = 0


def derive_stream(seed: int, problem_name: str, noise_pair: tuple[float, float], replicate: int) -> int:
    """Derive a 64-bit stream id from benchmark-cell coordinates.

    Deterministic across processes and platforms: fields are packed into
    a canonical byte string (length-prefixed name, IEEE-754 noise levels)
    and hashed with blake2b.
    """
    name_bytes = problem_name.encode("utf-8")
    payload = struct.pack("<Q", int(seed) & _UINT64_MAX)
    payload += struct.pack("<Q", len(name_bytes)) + name_bytes
    payload += struct.pack("<dd", float(noise_pair[0]), float(noise_pair[1]))
    payload += struct.pack("<Q", int(replicate) & _UINT64_MAX)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class StochasticOracle:
    """Noisy view of one problem, with its own RNG stream and counters."""

    def __init__(self, problem: Problem, config: OracleConfig):
        self.problem = problem
        self.config = config
        self.counters = EvalCounters()
        key = np.array([config.seed, config.stream_id], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._grad_scale = config.eps_g_noise / np.sqrt(problem.n)

    def noisy_f(self, x: np.ndarray) -> float:
        """One fresh zeroth-order sample at x; increments zeroth_calls."""
        self.counters.zeroth_calls += 1
        return self.problem.f(x) + self.config.eps_f_noise * self._rng.standard_normal()

    def noisy_grad(self, x: np.ndarray) -> np.ndarray:
        """One fresh first-order sample at x; increments first_calls."""
        self.counters.first_calls += 1
        noise = self._rng.standard_normal(self.problem.n)
        return self.problem.grad_f(x) + self._grad_scale * noise
