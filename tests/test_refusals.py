"""Refusals that no other test reaches, one row each: the call, the error
it raises with its exact message and, where the command line reaches the
same refusal, the arguments that make it exit 2 with that message as its
one stderr line."""

from __future__ import annotations

import re

import pytest

from asymcodes import (
    AbelianGroup,
    AlphabetSpec,
    ChannelGraph,
    CodeBook,
    MatrixModZq,
    Pairing,
    ProductChannel,
    WeightEnumerator,
    Word,
    asym_distance,
    ball_overlap,
    best_cr_group,
    canonical_pairing,
    concat_code,
    construct_even,
    construct_odd_mixed,
    decode_concat,
    expand_to_binary,
    fold_to_ternary,
    is_single_rq_correcting,
    make_channel,
    orbits_compatible,
    vt_code,
)
from asymcodes.cli import main
from asymcodes.cyclic import orbit_of
from asymcodes.io import write_code_file
from asymcodes.ternary import prefix_parts
from asymcodes.words import AlphabetMismatch


def book(q, rows, **kwargs):
    return CodeBook.from_symbols(AlphabetSpec.uniform(q, len(rows[0])), rows, **kwargs)


BINARY = book(2, [(0, 0), (1, 1)])
TERNARY3 = book(3, [(0, 0, 0), (1, 1, 1)])
TERNARY4 = book(3, [(0, 0, 0, 0)])
QUATERNARY = book(4, [(0, 3)])
Z2 = ProductChannel.power(make_channel("Z", 2), 2)


# (id, call, error, message, CLI arguments or None, files they read): each
# `{name}` in the arguments becomes the path of a file holding files[name]
REFUSALS = [
    ("channel-q", lambda: ChannelGraph(1, frozenset()), ValueError,
     "alphabet size must be >= 2", None, {}),
    ("channel-self-loop", lambda: ChannelGraph(3, frozenset({(1, 1)})), ValueError,
     "self-loops are not allowed", None, {}),
    ("channel-edge", lambda: ChannelGraph(3, frozenset({(0, 3)})), ValueError,
     "edge (0,3) outside alphabet 0..2", None, {}),
    ("product-channel-empty", lambda: ProductChannel(()), ValueError,
     "need at least one coordinate", None, {}),
    ("counting", lambda: ball_overlap(BINARY, Z2, 1, "bogus"), ValueError,
     "counting must be 'magnitude' or 'coordinates'", None, {}),
    ("group-factor", lambda: AbelianGroup((1, 3)), ValueError,
     "cyclic factors must be >= 2", ["construct", "cr", "--group", "1x3"], {}),
    ("group-empty", lambda: AbelianGroup(()), ValueError,
     "group order must be >= 2", None, {}),
    ("best-group-length", lambda: best_cr_group(0), ValueError,
     "n must be >= 1", None, {}),
    ("vt-target", lambda: vt_code(8, 9), ValueError,
     "g must satisfy 0 <= g <= n", ["construct", "vt", "--n", "8", "--g", "9"], {}),
    ("pairing-mode", lambda: canonical_pairing(5, "bogus"), ValueError,
     "unknown pairing mode 'bogus'", None, {}),
    ("metadata-whitespace", lambda: write_code_file(book(2, [(0, 1)], meta={"note": "a b"})),
     ValueError, "metadata entry 'note' contains whitespace", None, {}),
    ("matrix-q", lambda: MatrixModZq(1, ((0, 0),)), ValueError, "q must be >= 2",
     ["construct", "concat", "--outer-gen", "{outer}"], {"outer": "1 1 2 generator\n0 0\n"}),
    ("matrix-ragged", lambda: MatrixModZq(3, ((1, 2), (1,))), ValueError,
     "ragged matrix", None, {}),
    ("matrix-text-empty", lambda: MatrixModZq.from_text(""), ValueError, "empty matrix text",
     ["construct", "concat", "--outer-gen", "{outer}"], {"outer": ""}),
    ("role-rq-check", lambda: is_single_rq_correcting(MatrixModZq(3, ((1, 1),))), ValueError,
     "expected a parity-check matrix", None, {}),
    ("role-outer-code", lambda: concat_code(MatrixModZq(3, ((1, 1),), "parity")), ValueError,
     "outer code must be given by a generator matrix",
     ["construct", "concat", "--outer-gen", "{outer}"], {"outer": "3 1 2 parity\n1 1\n"}),
    ("role-decoder", lambda: decode_concat(MatrixModZq(3, ((1, 1),)), (0, 0, 0, 0)), ValueError,
     "expected the outer parity-check matrix", None, {}),
    ("fold-binary", lambda: fold_to_ternary(TERNARY3, Pairing(((0, 1),), 2)), ValueError,
     "fold input must be a binary code", None, {}),
    ("expand-layout", lambda: expand_to_binary(BINARY, Pairing(((0, 1),))), ValueError,
     "code layout does not match the pairing", None, {}),
    ("even-ternary", lambda: construct_even(BINARY), ValueError,
     "construct_even expects a pure ternary code", None, {}),
    ("mixed-alphabet", lambda: construct_odd_mixed(QUATERNARY), ValueError,
     "coordinates must be binary or ternary",
     ["construct", "ternary", "--in", "{code}"], {"code": write_code_file(QUATERNARY)}),
    ("parts-length", lambda: prefix_parts(TERNARY3, TERNARY4), ValueError,
     "parts must be ternary codes over the same length",
     ["construct", "ternary", "--in0", "{c0}", "--in1", "{c1}"],
     {"c0": write_code_file(TERNARY3), "c1": write_code_file(TERNARY4)}),
    ("alphabet-mixed-q", lambda: AlphabetSpec((2, 3)).q, ValueError,
     "alphabet profile is mixed; no single q", None, {}),
    ("word-profiles", lambda: asym_distance(Word((0, 1), AlphabetSpec((2, 2))),
                                            Word((0, 1), AlphabetSpec((3, 3)))),
     AlphabetMismatch, "words have different alphabet profiles", None, {}),
    ("enumerator-length", lambda: WeightEnumerator(2, (1, 0)), ValueError,
     "counts must have one entry per weight 0..n", None, {}),
    ("enumerator-negative", lambda: WeightEnumerator(1, (1, -1)), ValueError,
     "weight counts must be nonnegative", None, {}),
    ("orbit-lengths", lambda: orbits_compatible(orbit_of((0, 1)), orbit_of((0, 1, 2))),
     ValueError, "orbits have different lengths", None, {}),
]


@pytest.mark.parametrize("call, error, message, argv, files",
                         [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(tmp_path, capsys, call, error, message, argv, files):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    if argv is not None:
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        for name, path in paths.items():
            path.write_text(files[name])
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_parity_check_with_no_rows_corrects_nothing():
    assert is_single_rq_correcting(MatrixModZq(3, (), "parity")) is False
