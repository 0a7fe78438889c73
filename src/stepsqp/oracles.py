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
are the same bits whatever the block size. Each block is scaled once,
when it is drawn, by eps_g_noise / sqrt(n), so a gradient sample is the
exact gradient plus a slice of the scaled block: an elementwise product
has the same bits whether it is taken per block or per slice. A value
sample scales its one normal by eps_f_noise as a Python float, the same
IEEE product.
"""

from __future__ import annotations

import hashlib
import numbers
import struct
import sys
from dataclasses import dataclass

import numpy as np

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


def require_numbers(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields that is no real number (bools are not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number")


@dataclass(frozen=True)
class OracleConfig:
    """Noise scales plus RNG identity for one run.

    Each noise level is stored as a float, with -0.0 folded into 0.0, so
    equal levels name and seed the same run whichever number gave them.
    """

    eps_f_noise: float = 0.0
    eps_g_noise: float = 0.0
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        require_numbers(self, "eps_f_noise", "eps_g_noise")
        if not (self.eps_f_noise >= 0.0 and is_finite(self.eps_f_noise)):
            raise ValueError("eps_f_noise must be finite and >= 0")
        if not (self.eps_g_noise >= 0.0 and is_finite(self.eps_g_noise)):
            raise ValueError("eps_g_noise must be finite and >= 0")
        for name in ("eps_f_noise", "eps_g_noise"):
            # Adding 0.0 folds -0.0 into 0.0.
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not is_int(value) or not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must be an integer in [0, 2^64)")


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
    """Noisy samples for a problem in n variables, with their own RNG stream.

    zeroth_calls and first_calls count the value and gradient samples
    drawn so far.
    """

    def __init__(self, n: int, config: OracleConfig):
        self.config = config
        self.zeroth_calls = 0
        self.first_calls = 0
        key = np.array([config.seed, config.stream_id], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._n = n
        self._grad_scale = config.eps_g_noise / np.sqrt(n)
        # The current block of standard normals, and its gradient-scaled copy.
        self._block = self._grad_noise = np.empty(0)
        self._pos = 0

    def _take(self, count: int) -> int:
        """Reserve the stream's next count normals; return their offset in the current block."""
        pos = self._pos
        end = pos + count
        if end > self._block.size:
            # Unused normals stay ahead of the new ones, so the order of
            # the stream is kept across refills.
            fresh = self._rng.standard_normal(max(NOISE_BLOCK, count))
            block = self._block = np.concatenate((self._block[pos:], fresh))
            # Most entries of a block never meet the gradient scale; a
            # product that overflows is inf, as it would be per sample.
            with np.errstate(over="ignore"):
                self._grad_noise = self._grad_scale * block
            pos, end = 0, count
        self._pos = end
        return pos

    def noisy_f(self, f_value: float) -> float:
        """Exact value f(x) plus one fresh zeroth-order noise draw; increments zeroth_calls."""
        self.zeroth_calls += 1
        pos = self._take(1)  # before _block is read, since a refill replaces it
        # A Python float product overflows to inf, as the block product would.
        return f_value + self.config.eps_f_noise * self._block.item(pos)

    def noisy_grad(self, g_value: np.ndarray) -> np.ndarray:
        """Exact gradient grad f(x) plus one fresh noise draw; increments first_calls."""
        self.first_calls += 1
        n = self._n
        pos = self._take(n)
        return g_value + self._grad_noise[pos : pos + n]
