"""Stochastic function-value and gradient oracles.

The solver never uses exact objective values or gradients in its
steps; it takes oracle samples, which add centered Gaussian noise:

* zeroth order:  fbar(x) = f(x) + eps_f_noise * z,          z ~ N(0, 1)
* first order:   gbar(x) = grad f(x) + (eps_g_noise / sqrt(n)) * z,
                 z ~ N(0, I_n)

so that E ||gbar - grad f||^2 = eps_g_noise^2 independently of n. The
caller passes the exact value f(x) or grad f(x), which the solver holds
anyway, and the oracle returns it plus fresh noise, so a sample does not
evaluate the problem again. With both noise scales zero the oracles are
exact pass-throughs. Every call draws fresh noise and bumps the
corresponding counter; constraint values are always exact and are not
counted here.

Streams are counter-based (Philox) and keyed by (seed, stream_id), so
runs with equal configuration reproduce bit-identical traces and
distinct stream ids are independent by construction. Use
:func:`derive_stream` to map benchmark coordinates to a stream id. The
standard normals are drawn from the stream in blocks and handed out in
stream order, which is the order of one draw per call: a run's samples
are the same bits whatever the block size.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .problems import Problem

_UINT64_MAX = 2**64 - 1
# Standard normals drawn from the stream at a time; a block serves many
# iterations of n + 2 draws each.
NOISE_BLOCK = 1024


def is_int(value) -> bool:
    """An int that is not a bool (bool is an int subclass; True must not pass for 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether a real number is finite; an int too large for a float is not."""
    return abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class OracleConfig:
    """Noise scales plus RNG identity for one run."""

    eps_f_noise: float = 0.0
    eps_g_noise: float = 0.0
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if not (self.eps_f_noise >= 0.0 and is_finite(self.eps_f_noise)):
            raise ValueError("eps_f_noise must be finite and >= 0")
        if not (self.eps_g_noise >= 0.0 and is_finite(self.eps_g_noise)):
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
        self._block = np.empty(0)
        self._pos = 0

    def _take(self, count: int) -> int:
        """Reserve the stream's next count normals; return their offset in _block."""
        pos = self._pos
        end = pos + count
        if end > self._block.size:
            # Unused normals stay ahead of the new ones, so the order of
            # the stream is kept across refills.
            fresh = self._rng.standard_normal(max(NOISE_BLOCK, count))
            self._block = np.concatenate((self._block[pos:], fresh))
            pos, end = 0, count
        self._pos = end
        return pos

    def noisy_f(self, f_value: float) -> float:
        """Exact value f(x) plus one fresh zeroth-order noise draw; increments zeroth_calls."""
        self.counters.zeroth_calls += 1
        pos = self._take(1)
        return f_value + self.config.eps_f_noise * self._block.item(pos)

    def noisy_grad(self, g_value: np.ndarray) -> np.ndarray:
        """Exact gradient grad f(x) plus one fresh noise draw; increments first_calls."""
        self.counters.first_calls += 1
        n = self.problem.n
        pos = self._take(n)
        return g_value + self._grad_scale * self._block[pos : pos + n]
