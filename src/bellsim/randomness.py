"""Device-independent randomness accounting and a concrete seeded extractor.

The certification chain: a violation B of the detection-probability Bell
inequality bounds any observer's per-event guessing probability,

    p_guess <= (1 + sqrt(2 - (1 + 2B)^2)) / 2,

valid for 0 <= B <= (sqrt(2)-1)/2 (the quantum maximum, where the bound
reaches 1/2 and certifies one full bit).  Min-entropy per event is then
-log2(p_guess), and the raw certified entropy is events times that.
Finite-size effects are deliberately not accounted for; every report
carries that caveat.

Extraction policies size the final string from the raw entropy:

- "sha-half": hash-based extraction treated as sound when the input
  entropy is at least twice the output length; no seed.
- "trevisan-sized": seed-efficient quantum-proof extraction sizing,
  output = raw - 4*log2(1/eps), seed = ceil((log2 n)^3) for an n-bit raw
  string.  Only the arithmetic is implemented; the construction itself
  is out of scope.
- "hash-extract": leftover-hash sizing for the concrete Toeplitz
  extractor below, output = raw - 2*log2(1/eps), seed of order the raw
  string length.

The concrete extractor is binary Toeplitz hashing: output bit i is the
parity of seed[i : i+n] (reversed) AND the raw bits, which makes the map
linear over XOR and needs n + m - 1 seed bits for m output bits.  Those
parities are the low bits of a correlation, which is computed by FFT on
tiles of at most _TILE_BITS output bits.  A tile of `rows` output bits
takes a transform sized to its rows, min(2*_TILE_BITS,
_fft_length(max(2^16, 4*rows))) points, and span = that length - rows + 1
raw bits, so that a full tile's correlation fills its transform: 2^16
points for up to 2^14 rows, 2^21 = 2*_TILE_BITS from 2^19 rows on.  A
partial tile, one short of raw bits (the last for each band of output
bits), takes the smallest 2^i 3^j 5^k length that holds its width +
rows - 1 correlation values.  So 2^18 raw and 4364 output bits take four
65 536-point transforms and one of 21 870 points.  An n-bit input and
m-bit output cost O((n + m) log(n + m)), and the extractor holds one
tile beyond its inputs, whatever n and m are (Hayashi & Tsurumaru, IEEE
TIT 62, 2213 (2016)).  The inputs are checked to be 0/1 bits in place,
by their dtype and one min/max test, not copied.  Every tile's
correlation is checked to round cleanly to integers, so the output bits
are exact or the call raises.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .counting import CountsTable
from .errors import NumericalError, ValidationError
from .stats import ch_from_counts

POLICIES = ("sha-half", "trevisan-sized", "hash-extract")

B_QUANTUM_MAX = (math.sqrt(2.0) - 1.0) / 2.0

# raw bits recorded per event; dire_report sizes the seeded policies'
# raw string as events times this
BITS_PER_EVENT = 8

FINITE_SIZE_CAVEAT = (
    "entropy accounting neglects finite-size effects; rates are asymptotic"
)

_BITS_MAGIC = b"BELLSIMX"

# Output bits per FFT tile; a tile of `rows` output bits takes a
# transform of min(2 * _TILE_BITS, _fft_length(max(_MIN_FFT, 4 * rows)))
# points and that length - rows + 1 raw bits, so that a full tile's
# correlation fills its transform (see the module docstring).  A tile's
# correlation values are integers up to 2^21, far inside float64's exact
# range.
_TILE_BITS = 1 << 20

# Fewest points in a tile's transform, so that a short output does not
# pay a transform call per few raw bits; at 4 * rows points or more, a
# tile's raw span is at least three quarters of its transform.
_MIN_FFT = 1 << 16

# Largest distance from an integer that a correlation value may show
# before its rounding, and so its parity, is no longer trusted.
_ROUNDING_TOL = 0.25


def guessing_probability(b_value: float) -> float:
    """Adversarial guessing probability certified by the violation B.

    B <= 0 certifies nothing (returns 1); B above the quantum maximum is
    rejected as inconsistent input.
    """
    if not math.isfinite(b_value):
        raise ValidationError("B must be finite")
    if b_value > B_QUANTUM_MAX + 1e-12:
        raise ValidationError(
            f"B = {b_value} exceeds the quantum maximum {B_QUANTUM_MAX:.6f}"
        )
    if b_value <= 0.0:
        return 1.0
    arg = 2.0 - (1.0 + 2.0 * min(b_value, B_QUANTUM_MAX)) ** 2
    return (1.0 + math.sqrt(max(arg, 0.0))) / 2.0


def min_entropy(b_value: float) -> float:
    """Certified min-entropy per event in bits: -log2(p_guess)."""
    return -math.log2(guessing_probability(b_value))


def extractable_length(
    raw_entropy_bits: float,
    policy: str,
    epsilon: float | None = None,
    raw_string_bits: int | None = None,
) -> tuple[int, int]:
    """(extractable_bits, seed_bits) for the chosen policy.

    A negative resulting length is reported as 0 with a warning rather
    than an error, so sweeps over weak violations stay usable.
    """
    if not (math.isfinite(raw_entropy_bits) and raw_entropy_bits >= 0):
        raise ValidationError(
            f"raw_entropy_bits must be finite and >= 0, got {raw_entropy_bits!r}")
    if policy == "sha-half":
        return int(raw_entropy_bits // 2), 0
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}")
    if epsilon is None or not 0.0 < epsilon < 1.0:
        raise ValidationError(f"policy {policy!r} needs epsilon in (0,1)")
    if raw_string_bits is None or raw_string_bits < 1:
        raise ValidationError(f"policy {policy!r} needs the raw string length in bits")
    penalty = (4.0 if policy == "trevisan-sized" else 2.0) * math.log2(1.0 / epsilon)
    out = math.floor(raw_entropy_bits - penalty)
    if out < 0:
        warnings.warn(
            f"entropy {raw_entropy_bits:.1f} bits cannot pay the {penalty:.1f}-bit "
            f"extraction penalty; reporting 0 extractable bits",
            stacklevel=2,
        )
        out = 0
    if policy == "trevisan-sized":
        seed = math.ceil(math.log2(raw_string_bits) ** 3)
    else:
        seed = int(raw_string_bits)
    return int(out), int(seed)


# ---------------------------------------------------------------------------
# concrete Toeplitz extractor


def _as_bits(x, name: str) -> np.ndarray:
    """x as a flat array of 0/1 bits, checked in place: a bool array is
    viewed as uint8 and an integer array is kept, not copied."""
    arr = np.asarray(x)
    if arr.dtype == bool:
        arr = arr.view(np.uint8)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must be an integer/bool bit array")
    if arr.ndim != 1 or (arr.size and (arr.min() < 0 or arr.max() > 1)):
        raise ValidationError(f"{name} must be a flat array of 0/1 bits")
    return arr


def _fft_length(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n, a length pocketfft transforms at full speed."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def hash_extract(raw_bits, seed_bits, out_len: int) -> np.ndarray:
    """Toeplitz-hash raw_bits down to out_len bits using the seed.

    out[i] = parity over j of T[i, j] * raw[j], with the Toeplitz matrix
    T[i, j] = seed[i + (n-1) - j] for an n-bit input.  Requires
    len(seed_bits) >= n + out_len - 1.  Linear over XOR of inputs for a
    fixed seed; deterministic.
    """
    raw = _as_bits(raw_bits, "raw_bits")
    seed = _as_bits(seed_bits, "seed_bits")
    if isinstance(out_len, bool) or not isinstance(out_len, (int, np.integer)):
        raise ValidationError(f"out_len must be an integer, got {out_len!r}")
    out_len = int(out_len)
    if out_len < 0:
        raise ValidationError("out_len must be >= 0")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    n = raw.size
    if n == 0:
        raise ValidationError("raw_bits must be nonempty for a nonzero output")
    need = n + out_len - 1
    if seed.size < need:
        raise ValidationError(f"seed too short: need {need} bits, got {seed.size}")

    out = np.zeros(out_len, dtype=np.uint8)
    # out[i] = sum_j seed[i + n-1 - j] raw[j] is entry i + n-1 of the
    # convolution of seed and raw; each (row tile, raw tile) pair adds its
    # share from the seed bits it touches
    for i0 in range(0, out_len, _TILE_BITS):
        rows = min(_TILE_BITS, out_len - i0)
        span = min(2 * _TILE_BITS, _fft_length(max(_MIN_FFT, 4 * rows))) - rows + 1
        for j0 in range(0, n, span):
            width = min(span, n - j0)
            s0 = i0 + n - j0 - width
            size = _fft_length(width + rows - 1)
            conv = np.fft.irfft(
                np.fft.rfft(seed[s0:s0 + width + rows - 1], size)
                * np.fft.rfft(raw[j0:j0 + width], size),
                size,
            )[width - 1:width - 1 + rows]
            sums = np.rint(conv)
            error = float(np.max(np.abs(conv - sums)))
            if error > _ROUNDING_TOL:
                raise NumericalError(
                    f"Toeplitz FFT tile is off an integer by {error:.3g}; parities are not exact"
                )
            out[i0:i0 + rows] ^= (sums.astype(np.int64) & 1).astype(np.uint8)
    return out


def pack_bits(bits) -> bytes:
    return np.packbits(_as_bits(bits, "bits")).tobytes()


def unpack_bits(data: bytes, n_bits: int | None = None) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return bits if n_bits is None else bits[:n_bits]


def write_extracted_bits(path: str, bits) -> None:
    """Raw binary output: 8-byte magic, little-endian u64 bit count, packed bits."""
    arr = _as_bits(bits, "bits")
    with open(path, "wb") as fh:
        fh.write(_BITS_MAGIC)
        fh.write(struct.pack("<Q", arr.size))
        fh.write(pack_bits(arr))


def read_extracted_bits(path: str) -> np.ndarray:
    """The bits of a write_extracted_bits file, which must hold exactly the
    ceil(n/8) payload bytes its header's bit count n declares."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BITS_MAGIC:
            raise ValidationError(f"not an extracted-bits file (magic {magic!r})")
        count = fh.read(8)
        if len(count) != 8:
            raise ValidationError("extracted-bits file ends inside its 16-byte header")
        (n,) = struct.unpack("<Q", count)
        payload = fh.read()
    size = -(-n // 8)
    if len(payload) != size:
        raise ValidationError(f"extracted-bits file declares {n} bits, {size} bytes, "
                              f"but holds {len(payload)} payload bytes")
    return unpack_bits(payload, n)


# ---------------------------------------------------------------------------
# end-to-end report


@dataclass(frozen=True)
class DireReport:
    """Randomness budget certified by one counts table."""

    B: float
    p_guess: float
    h_min: float
    n_events: int
    raw_entropy_bits: float
    policy: str
    extractable_bits: int
    seed_bits: int
    rate_bits_per_s: float
    acquisition_s: float
    caveats: tuple[str, ...] = (FINITE_SIZE_CAVEAT,)

    def to_json_dict(self) -> dict:
        return {
            "B": self.B,
            "p_guess": self.p_guess,
            "h_min_per_event": self.h_min,
            "n_events": self.n_events,
            "raw_entropy_bits": self.raw_entropy_bits,
            "policy": self.policy,
            "extractable_bits": self.extractable_bits,
            "seed_bits": self.seed_bits,
            "rate_bits_per_s": self.rate_bits_per_s,
            "acquisition_s": self.acquisition_s,
            "caveats": list(self.caveats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def dire_report(
    table: CountsTable,
    acquisition_s: float,
    policy: str = "sha-half",
    epsilon: float | None = None,
) -> DireReport:
    """Chain counts -> violation -> min-entropy -> extractable length -> rate.

    B is the pooled-singles estimate; a B above the quantum maximum is
    rejected, as guessing_probability rejects it.
    """
    if not (math.isfinite(acquisition_s) and acquisition_s > 0):
        raise ValidationError(f"acquisition_s must be finite and positive, got {acquisition_s!r}")
    b_value = ch_from_counts(table, "pooled")
    p = guessing_probability(b_value)
    h = -math.log2(p)
    n_events = int(table.total_trials)
    raw = n_events * h
    out, seed = extractable_length(
        raw, policy, epsilon=epsilon, raw_string_bits=n_events * BITS_PER_EVENT
    )
    return DireReport(
        B=float(b_value),
        p_guess=p,
        h_min=h,
        n_events=n_events,
        raw_entropy_bits=raw,
        policy=policy,
        extractable_bits=out,
        seed_bits=seed,
        rate_bits_per_s=out / acquisition_s,
        acquisition_s=float(acquisition_s),
    )
