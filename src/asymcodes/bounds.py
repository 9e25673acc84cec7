"""Sphere-packing bounds, perfectness certification, and the two summary
tables (rate ratios and 1-code sizes by length).

All bound arithmetic is exact big-integer; floats appear only in the final
display of the rate ratio s.  Literature figures in the size table are
stored reference constants with provenance labels, never recomputed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import log2

from .cyclic import builtin_table_generators
from .groups import best_cr_group, cr_code
from .linearq import MatrixModZq, codewords_of, hamming_parity_check
from .words import CodeBook, _at_least, _integer, _shown, _typed, is_lm_code, weight_enumerator


# The largest word space `sphere_bound` computes: q^n below 2^SPHERE_BITS,
# so the bound prints within Python's default 4300-digit limit on
# int-to-str conversion (2^14000 has 4215 digits).
SPHERE_BITS = 14_000


def sphere_bound(q: int, n: int, t_tilde: int, ell: int) -> int:
    """Largest |C| allowed by ball packing for t_tilde errors of magnitude
    at most ell each: floor(q^n / sum_{i<=t} C(n,i) ell^i).  Raises
    ValueError naming n unless q^n < 2^SPHERE_BITS, before building q^n
    when (bits of q - 1) * n already reaches the limit."""
    q, n = _at_least(q, 2, "q"), _at_least(n, 1, "n")
    t_tilde, ell = _at_least(t_tilde, 0, "t_tilde"), _at_least(ell, 1, "ell")
    if (q.bit_length() - 1) * n >= SPHERE_BITS or (space := q**n).bit_length() > SPHERE_BITS:
        raise ValueError(f"n {_shown(n)} is too large: q^n must stay below 2^{SPHERE_BITS}")
    # C(n, i) ell^i from its predecessor; C(n, i) = 0 past n, and once the
    # ball outgrows the space the bound is 0
    denom = term = 1
    for i in range(1, min(t_tilde, n) + 1):
        term = term * ell * (n - i + 1) // i
        denom += term
        if denom > space:
            return 0
    return space // denom


def is_perfect(c: CodeBook, t_tilde: int, ell: int) -> bool:
    """True iff c meets the wrap-around sphere-packing bound with equality.

    The code is first verified to actually correct t_tilde wrap-around
    limited-magnitude errors.
    """
    if not is_lm_code(_typed(c, CodeBook, "c"), t_tilde, ell, wrap=True):
        raise ValueError("code fails the limited-magnitude verification")
    return len(c) == sphere_bound(c.alphabet.q, c.n, t_tilde, ell)


def best_d3_dimension(q: int, n: int) -> int:
    """Largest dimension of a distance-3 linear code of length n over F_q:
    n - r with r minimal such that (q^r - 1) / (q - 1) >= n."""
    q, n = _integer(q, "q"), _at_least(n, 3, "n")
    if q not in (2, 3):
        raise ValueError("supported for q in {2, 3}")
    r = 2
    while (q**r - 1) // (q - 1) < n:
        r += 1
    return n - r


def canonical_d3_ternary_check(m: int) -> MatrixModZq:
    """Deterministic [m, m-r, 3]_3 representative: the first m columns of
    the lexicographic length-(3^r-1)/2 parity check."""
    m = _at_least(m, 3, "m")
    H = hamming_parity_check(3, m - best_d3_dimension(3, m))
    rows = tuple(row[:m] for row in H.rows)
    return MatrixModZq(3, rows, "parity")


def kernel_image_size(H: MatrixModZq) -> int:
    """Binary image size W(2, 1) of the kernel code of H, computed exactly
    through the dual weight distribution (no kernel enumeration).

    The identity W_C(x, y) = |D|^-1 * W_D(x + (q-1) y, x - y) with D the
    row space of H gives W_C(2, 1) = |D|^-1 * W_D(q + 1, 1).
    """
    dual = codewords_of(MatrixModZq(H.q, H.rows, "generator"))
    size, rem = divmod(weight_enumerator(dual).evaluate(H.q + 1, 1), len(dual))
    if rem:
        raise ArithmeticError("dual transform did not divide exactly")
    return size


@dataclass(frozen=True)
class RateRatioRow:
    n: int
    ternary_image_size: int
    binary_dimension: int
    s: float
    reference_s: float | None
    within_tolerance: bool | None


# How far a computed rate ratio may sit from its reference value.
RATE_RATIO_TOLERANCE = 0.001

# Published reference ratios for the comparison table (index: binary length).
REFERENCE_RATE_RATIOS: dict[int, float] = {
    6: 1.107, 8: 1.250, 10: 1.000, 12: 0.940, 14: 0.936, 16: 1.026, 18: 1.020,
    20: 1.017, 22: 1.014, 24: 1.013, 26: 1.012, 28: 0.967, 30: 0.946, 32: 0.987,
    34: 0.988, 36: 0.988, 38: 0.989, 40: 0.990, 42: 0.990, 44: 0.991, 46: 0.991,
    48: 0.992, 50: 0.992, 52: 0.992, 54: 0.993, 56: 0.993, 58: 0.993, 60: 0.994,
    62: 0.994, 64: 1.012, 66: 1.011, 68: 1.011, 70: 1.010, 72: 1.010, 74: 1.010,
    76: 1.010, 78: 1.009, 80: 1.009, 82: 0.987, 84: 0.988, 86: 0.988, 88: 0.988,
}


def rate_ratio(m: int) -> float:
    """Ratio of the rates at binary length 2m: bits carried by the ternary
    image of the canonical [m, m-r, 3]_3 code over the best linear binary
    distance-3 dimension.  Reported to 3 decimals."""
    return rate_ratio_row(m).s


def rate_ratio_row(m: int) -> RateRatioRow:
    image = kernel_image_size(canonical_d3_ternary_check(m))
    dim = best_d3_dimension(2, 2 * m)
    s = round(log2(image) / dim, 3)
    ref = REFERENCE_RATE_RATIOS.get(2 * m)
    ok = None if ref is None else abs(s - ref) <= RATE_RATIO_TOLERANCE + 1e-12
    return RateRatioRow(2 * m, image, dim, s, ref, ok)


def table1_report() -> dict:
    """Computed rate ratios against the stored reference values.

    Rows whose canonical code representative differs from the one behind
    the reference value may deviate past the third decimal; those rows are
    flagged, not hidden.
    """
    rows = [rate_ratio_row(m) for m in range(3, max(REFERENCE_RATE_RATIOS) // 2 + 1)]
    return {"table": "rate-ratio", "tolerance": RATE_RATIO_TOLERANCE,
            "rows": [asdict(r) for r in rows]}


# Reference constants for the size table.  The first two columns are
# recomputed by this package; the last two are literature figures kept as
# data (partition-method constructions and best known bounds), with
# provenance labels only.
TABLE2_REFERENCE: dict[int, dict] = {
    6: {"cr": 10, "cyclic": 12, "partition": None, "known_bounds": "12"},
    7: {"cr": 16, "cyclic": 16, "partition": None, "known_bounds": "18"},
    8: {"cr": 32, "cyclic": 29, "partition": None, "known_bounds": "36"},
    9: {"cr": 52, "cyclic": 53, "partition": None, "known_bounds": "62"},
    10: {"cr": 94, "cyclic": 98, "partition": 104, "known_bounds": "112-117"},
    11: {"cr": 172, "cyclic": 154, "partition": 180, "known_bounds": "198-210"},
    12: {"cr": 316, "cyclic": 336, "partition": 336, "known_bounds": "379-410"},
    13: {"cr": 586, "cyclic": 612, "partition": 652, "known_bounds": "699-786"},
    14: {"cr": 1096, "cyclic": 1200, "partition": 1228, "known_bounds": "1273-1500"},
    15: {"cr": 2048, "cyclic": 2144, "partition": 2288, "known_bounds": "2288-2828"},
    16: {"cr": 3856, "cyclic": 3952, "partition": 4280, "known_bounds": "4280-5486"},
}
PARTITION_PROVENANCE = "partition-method constructions, literature values"
KNOWN_BOUNDS_PROVENANCE = "best known size bounds, literature values"


def table2_report() -> dict:
    """Group-checksum sizes and bundled-generator image sizes for lengths
    6..16, next to the stored literature constants; mismatches against the
    stored expectations are flagged."""
    rows = []
    for n in range(6, 17):
        group = best_cr_group(n)
        cr_size = len(cr_code(group, None, 2))
        if n % 2 == 0:
            closure = builtin_table_generators(n // 2)
            cyclic_size = weight_enumerator(closure).evaluate(2, 1)
        else:
            part0, part1 = builtin_table_generators(n // 2, extended=True)
            cyclic_size = sum(weight_enumerator(part).evaluate(2, 1) for part in (part0, part1))
        ref = TABLE2_REFERENCE[n]
        rows.append(
            {
                "n": n,
                "cr_group": str(group),
                "cr_size": cr_size,
                "cyclic_image_size": cyclic_size,
                "partition": ref["partition"],
                "known_bounds": ref["known_bounds"],
                "cr_matches_reference": cr_size == ref["cr"],
                "cyclic_matches_reference": cyclic_size == ref["cyclic"],
            }
        )
    return {
        "table": "one-code-sizes",
        "provenance": {
            "cr_size": "computed: zero-sum group checksum code over the listed group",
            "cyclic_image_size": "computed: bundled shift-closed generators, image size",
            "partition": PARTITION_PROVENANCE,
            "known_bounds": KNOWN_BOUNDS_PROVENANCE,
        },
        "rows": rows,
    }


def format_table(report: dict) -> str:
    """Aligned plain-text rendering of a table report."""
    rows = report["rows"]
    if not rows:
        return "(empty table)\n"
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r[c])) for r in rows)) for c in cols}
    out = ["  ".join(str(c).ljust(widths[c]) for c in cols)]
    for r in rows:
        out.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(out) + "\n"
