"""Guessing-probability bounds, extraction sizing, and the Toeplitz extractor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bellsim as bs
from bellsim import randomness
from bellsim.errors import NumericalError, ValidationError

from conftest import matmul_toeplitz

B_MAX = bs.B_QUANTUM_MAX


def test_guessing_probability_anchors():
    assert bs.guessing_probability(0.0) == 1.0
    assert bs.guessing_probability(-0.2) == 1.0
    assert bs.guessing_probability(B_MAX) == pytest.approx(0.5, abs=1e-12)
    assert bs.guessing_probability(5.4e-5) == pytest.approx(1 - 5.4e-5, abs=2e-6)


def test_guessing_probability_rejects_superquantum():
    with pytest.raises(ValidationError):
        bs.guessing_probability(0.25)


def test_min_entropy_anchors():
    assert bs.min_entropy(0.0) == 0.0
    assert bs.min_entropy(B_MAX) == pytest.approx(1.0, abs=1e-12)
    # the bound evaluated at the reference violation level
    assert bs.min_entropy(5.4e-5) == pytest.approx(7.79e-5, rel=1e-3)


def test_monotonicity():
    bs_values = np.linspace(0.0, B_MAX, 200)
    p = [bs.guessing_probability(b) for b in bs_values]
    h = [bs.min_entropy(b) for b in bs_values]
    assert all(x >= y - 1e-15 for x, y in zip(p, p[1:]))
    assert all(x <= y + 1e-15 for x, y in zip(h, h[1:]))


def test_raw_entropy_reference_scale():
    n_events = 111_259_682
    raw = n_events * bs.min_entropy(5.4e-5)
    assert raw == pytest.approx(8.7e3, rel=0.02)


# ---------------------------------------------------------------------------
# extraction sizing


def test_sha_half_sizing():
    assert bs.extractable_length(8700, "sha-half") == (4350, 0)
    assert bs.extractable_length(0, "sha-half") == (0, 0)


def test_trevisan_sizing():
    out, seed = bs.extractable_length(8700, "trevisan-sized", epsilon=1e-9,
                                      raw_string_bits=8 * 10**8)
    assert out == 8580
    assert seed == pytest.approx(26_000, abs=500)


def test_hash_extract_sizing():
    out, seed = bs.extractable_length(1000, "hash-extract", epsilon=1e-6,
                                      raw_string_bits=4096)
    assert out == 1000 - math.ceil(2 * math.log2(1e6))
    assert seed == 4096


def test_negative_length_warns_to_zero():
    with pytest.warns(UserWarning):
        out, _ = bs.extractable_length(10, "trevisan-sized", epsilon=1e-9,
                                       raw_string_bits=1024)
    assert out == 0


def test_sizing_validation():
    with pytest.raises(ValidationError):
        bs.extractable_length(100, "trevisan-sized")  # missing epsilon
    with pytest.raises(ValidationError):
        bs.extractable_length(100, "unknown-policy", epsilon=0.5, raw_string_bits=10)


@pytest.mark.parametrize("raw", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("policy", ["sha-half", "hash-extract"])
def test_sizing_rejects_non_finite_or_negative_entropy(raw, policy):
    with pytest.raises(ValidationError, match="raw_entropy_bits must be finite and >= 0"):
        bs.extractable_length(raw, policy, epsilon=1e-6, raw_string_bits=4096)


@given(raw=st.floats(0, 1e7), eps_exp=st.integers(1, 12))
def test_extractable_never_exceeds_raw(raw, eps_exp):
    import warnings

    for policy in ("sha-half", "trevisan-sized", "hash-extract"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the zero-clamp warning is expected here
            out, _ = bs.extractable_length(raw, policy, epsilon=10.0**-eps_exp,
                                           raw_string_bits=10**6)
        assert out <= raw


# ---------------------------------------------------------------------------
# Toeplitz extractor


def oracle_toeplitz(raw, seed, m):
    """Straightforward triple-loop construction: T[i][j] = seed[i + n-1 - j]."""
    n = len(raw)
    out = []
    for i in range(m):
        acc = 0
        for j in range(n):
            acc ^= int(seed[i + n - 1 - j]) & int(raw[j])
        out.append(acc)
    return np.array(out, dtype=np.uint8)


FROZEN_RAW = "0001000011001101000110111110011100001010110111111100100011011101"
FROZEN_SEED = (
    "1111011111100011000010111011100000010011100001110010101001011111"
    "1011010111011011011011110100110"
)
FROZEN_OUT = "10010001101000001101010010101010"


def _bits(text):
    return np.array([int(ch) for ch in text], dtype=np.uint8)


def test_frozen_regression_vector():
    got = bs.hash_extract(_bits(FROZEN_RAW), _bits(FROZEN_SEED), 32)
    assert "".join(map(str, got)) == FROZEN_OUT
    # and the frozen vector itself agrees with the independent oracle
    assert np.array_equal(oracle_toeplitz(_bits(FROZEN_RAW), _bits(FROZEN_SEED), 32), got)


def test_oracle_cross_check_random_shapes():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 40))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        assert np.array_equal(bs.hash_extract(raw, seed, m), oracle_toeplitz(raw, seed, m))


def _random_case(rng, n, m, spare=0):
    raw = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + m - 1 + spare, dtype=np.uint8)
    return raw, seed


TILE = randomness._TILE_BITS


@pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 3])
def test_matmul_oracle_inputs_straddling_the_tile(n):
    rng = np.random.default_rng(n)
    for m in (1, 37):
        raw, seed = _random_case(rng, n, m)
        assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))


def test_matmul_oracle_long_outputs():
    rng = np.random.default_rng(29)
    for n in (1, 2, 333, 4099):
        for m in (1, 2, 1000, 4364, 6001):
            raw, seed = _random_case(rng, n, m, spare=int(rng.integers(0, 3)))
            assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))


def test_matmul_oracle_many_tiles(monkeypatch):
    # shrink the tile so random shapes cross several raw and output tiles
    monkeypatch.setattr(randomness, "_TILE_BITS", 7)
    rng = np.random.default_rng(31)
    for _ in range(300):
        n, m = (int(v) for v in rng.integers(1, 40, size=2))
        raw, seed = _random_case(rng, n, m, spare=int(rng.integers(0, 3)))
        assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))


def _fft_lengths(monkeypatch):
    """The list that each later irfft call appends its length to."""
    irfft, sizes = np.fft.irfft, []

    def recording_irfft(a, n):
        sizes.append(n)
        return irfft(a, n)

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    return sizes


def test_full_raw_tiles_fill_their_fft(monkeypatch):
    # a tile of m output bits takes 2*_TILE_BITS - m + 1 raw bits, so its
    # correlation needs exactly 2*_TILE_BITS values: one power-of-two FFT
    monkeypatch.setattr(randomness, "_TILE_BITS", 8)
    sizes = _fft_lengths(monkeypatch)
    raw, seed = _random_case(np.random.default_rng(37), 3 * 14 + 4, 3)
    assert np.array_equal(bs.hash_extract(raw, seed, 3), matmul_toeplitz(raw, seed, 3))
    # the last, partial tile's correlation of 4 + 3 - 1 values takes 6 points
    assert sizes == [16, 16, 16, 6]


def _smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fft_length_is_the_smallest_5_smooth_length():
    expected = [next(k for k in range(n, 2 * n + 1) if _smooth(k)) for n in range(1, 5001)]
    assert [randomness._fft_length(n) for n in range(1, 5001)] == expected
    # the benchmark's correlation (2^18 raw and 4364 output bits), and a full tile's
    assert randomness._fft_length(2**18 + 4364 - 1) == 270_000 == 2**4 * 3**3 * 5**4
    assert randomness._fft_length(2**21) == 2**21


@pytest.mark.parametrize("n, m", [
    (1000, 999),    # 1998 -> 2000
    (4000, 1000),   # 4999, a prime -> 5000
    (7000, 920),    # 7919, a prime -> 8000
    (10000, 8),     # 10007, a prime -> 10125
    (2999, 1),      # 2999, a prime -> 3000
    (12345, 6789),  # 19133 -> 19200
])
def test_matmul_oracle_lengths_that_are_not_powers_of_two(n, m):
    assert (n + m - 1) & (n + m - 2)  # not a power of two
    raw, seed = _random_case(np.random.default_rng(n + m), n, m, spare=1)
    assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))


def test_matmul_oracle_partial_tiles_of_every_length(monkeypatch):
    # at 8-bit tiles every correlation length 1..16 turns up, prime ones too
    monkeypatch.setattr(randomness, "_TILE_BITS", 8)
    sizes = _fft_lengths(monkeypatch)
    rng = np.random.default_rng(41)
    for n in range(1, 40):
        for m in (1, 2, 3, 5, 8, 9, 13, 17):
            raw, seed = _random_case(rng, n, m, spare=int(rng.integers(0, 3)))
            assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))
    assert set(sizes) == {randomness._fft_length(k) for k in range(1, 17)}
    assert {6, 9, 10, 12, 15} <= set(sizes)


def _benchmark_shape():
    """The paper-blocks extraction: 2^18 raw bits down to 4364."""
    return (*_random_case(np.random.default_rng(43), 2**18, 4364), 4364)


def test_benchmark_shape_takes_four_65536_point_transforms_and_one_of_21870(monkeypatch):
    # 4364 rows take 2^16-point transforms of 2^16 - 4363 raw bits each;
    # the last 17 452 raw bits make a correlation of 21 815 values
    sizes = _fft_lengths(monkeypatch)
    raw, seed, m = _benchmark_shape()
    assert np.array_equal(bs.hash_extract(raw, seed, m), matmul_toeplitz(raw, seed, m))
    assert sizes == [65_536] * 4 + [21_870]


@pytest.mark.parametrize("rows, length", [
    (1, 2**16), (4364, 2**16), (2**14, 2**16), (2**14 + 1, 65_610),
    (40_000, 160_000), (2**18, 2**20), (2**19 - 1, 2**21), (2**19, 2**21),
    (TILE, 2**21),
])
def test_full_tile_transform_is_sized_to_its_rows(rows, length, monkeypatch):
    # a full tile's correlation fills its transform:
    # min(2^21, _fft_length(max(2^16, 4 rows))) points
    sizes = _fft_lengths(monkeypatch)
    span = length - rows + 1
    raw = np.zeros(span + 1, dtype=np.uint8)
    seed = np.zeros(span + rows, dtype=np.uint8)
    bs.hash_extract(raw, seed, rows)
    # and the last raw bit a partial tile of `rows` correlation values
    assert sizes == [length, randomness._fft_length(rows)]


def test_benchmark_shape_peak_memory():
    # at most five 65 536-point complex arrays, 1 MiB each, beyond the
    # inputs, which are checked in place
    raw, seed, m = _benchmark_shape()
    bs.hash_extract(raw, seed, m)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bs.hash_extract(raw, seed, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (65_536 // 2 + 1) * 16, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64])
def test_bit_arrays_are_checked_without_a_copy(dtype):
    raw, seed = (a.astype(dtype) for a in _random_case(np.random.default_rng(47), 500, 60))
    want = matmul_toeplitz(raw.astype(np.uint8), seed.astype(np.uint8), 60)
    assert np.array_equal(bs.hash_extract(raw, seed, 60), want)
    assert np.shares_memory(randomness._as_bits(raw, "raw_bits"), raw)


@pytest.mark.parametrize("bits", [
    np.array([0, 1, 2]), np.array([0, -1, 1]), np.array([0, 255], dtype=np.uint8),
    np.array([[0, 1]]), np.array(1), np.array([0.0, 1.0]),
], ids=["two", "minus-one", "uint8-255", "2-d", "0-d", "float"])
def test_non_bits_are_rejected(bits):
    with pytest.raises(ValidationError, match="raw_bits must be"):
        bs.hash_extract(bits, np.ones(8, dtype=np.uint8), 1)


@pytest.mark.parametrize("out_len", [2.5, 2.0, True, "2", None])
def test_non_integer_output_length_is_rejected(out_len):
    with pytest.raises(ValidationError, match="out_len must be an integer"):
        bs.hash_extract(np.ones(8, dtype=np.uint8), np.ones(16, dtype=np.uint8), out_len)


def test_numpy_integer_output_length_is_accepted():
    raw, seed = _random_case(np.random.default_rng(53), 40, 9)
    assert np.array_equal(bs.hash_extract(raw, seed, np.int64(9)), matmul_toeplitz(raw, seed, 9))


def test_inexact_fft_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    raw, seed = _random_case(np.random.default_rng(5), 64, 32)
    with pytest.raises(NumericalError):
        bs.hash_extract(raw, seed, 32)


def test_zero_input_zero_output():
    seed = np.ones(127, dtype=np.uint8)
    out = bs.hash_extract(np.zeros(64, dtype=np.uint8), seed, 64)
    assert not out.any()


def test_empty_output():
    assert bs.hash_extract(np.ones(8, dtype=np.uint8), np.ones(8, dtype=np.uint8), 0).size == 0


def test_seed_too_short():
    with pytest.raises(ValidationError):
        bs.hash_extract(np.ones(64, dtype=np.uint8), np.ones(64, dtype=np.uint8), 32)


def test_xor_linearity_1000_cases():
    rng = np.random.default_rng(23)
    seed = rng.integers(0, 2, 128 + 32 - 1, dtype=np.uint8)
    for _ in range(1000):
        x = rng.integers(0, 2, 128, dtype=np.uint8)
        y = rng.integers(0, 2, 128, dtype=np.uint8)
        lhs = bs.hash_extract(x ^ y, seed, 32)
        rhs = bs.hash_extract(x, seed, 32) ^ bs.hash_extract(y, seed, 32)
        assert np.array_equal(lhs, rhs)


def test_bit_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 77, dtype=np.uint8)
    path = tmp_path / "out.bits"
    bs.write_extracted_bits(str(path), bits)
    assert np.array_equal(bs.read_extracted_bits(str(path)), bits)


@pytest.mark.parametrize("cut, message", [
    (lambda data: data[:12], "ends inside its 16-byte header"),
    (lambda data: data[:-1], "declares 10 bits, 2 bytes, but holds 1 payload bytes"),
    (lambda data: data + b"\0", "declares 10 bits, 2 bytes, but holds 3 payload bytes"),
], ids=["short-header", "short-payload", "trailing-bytes"])
def test_malformed_bit_file_is_rejected(cut, message, tmp_path):
    path = tmp_path / "out.bits"
    bs.write_extracted_bits(str(path), np.ones(10, dtype=np.uint8))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValidationError, match=message):
        bs.read_extracted_bits(str(path))


# ---------------------------------------------------------------------------
# end-to-end report


def test_dire_report_reference_rate(reference_counts):
    rep = bs.dire_report(reference_counts, acquisition_s=10_800.0, policy="sha-half")
    assert rep.rate_bits_per_s == pytest.approx(0.4, abs=0.02)
    assert rep.raw_entropy_bits == pytest.approx(8.7e3, rel=0.02)
    assert rep.extractable_bits <= rep.raw_entropy_bits
    assert any("finite-size" in c for c in rep.caveats)
    # four orders of magnitude over a 1.5e-5 bits/s baseline
    assert rep.rate_bits_per_s / 1.5e-5 > 1e4


def test_dire_report_zero_violation():
    table = bs.CountsTable(
        n_trials=np.full(4, 1000),
        singles_a=np.full(4, 100),
        singles_b=np.full(4, 100),
        coincidences=np.zeros(4, dtype=int),
    )
    rep = bs.dire_report(table, acquisition_s=100.0)
    assert rep.extractable_bits == 0
    assert rep.rate_bits_per_s == 0.0


def test_dire_report_rejects_a_superquantum_table():
    # B = 0.5 lies above the quantum maximum, so it certifies nothing
    table = bs.CountsTable(
        n_trials=np.full(4, 1000),
        singles_a=np.full(4, 500),
        singles_b=np.full(4, 500),
        coincidences=np.array([500, 500, 500, 0]),
    )
    assert bs.ch_from_counts(table) == pytest.approx(0.5)
    with pytest.raises(ValidationError, match="exceeds the quantum maximum"):
        bs.dire_report(table, acquisition_s=100.0)


def test_dire_report_json_round(reference_counts):
    doc = bs.dire_report(reference_counts, 10_800.0).to_json_dict()
    assert doc["n_events"] == 111_259_682
    assert doc["policy"] == "sha-half"
