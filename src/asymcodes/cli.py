"""Command-line surface binding the modules into one tool.

Exit codes: 0 = success / verified; 1 = a verification answered "no"
(not a t-code, failed decode, mismatched table); 2 = usage or input error.
Unless --unchecked is passed, construct vt and cr re-verify their output
with the ball oracle on the decrement chain, construct ternary checks its
input with the channel oracle, and construct concat checks the outer
code's single-error condition and then that the output is a 1-code;
construct hamming, lee and double verify nothing.  verify and the vt, cr
and concat re-checks answer and name their witness from one oracle or
kernel call (the two metric kernels share one pair scan): the received
word two error balls share, with their codewords (verify --model ball,
the vt and cr re-check), or two codewords within distance t (asym,
limited, the concat re-check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    format_table,
    sphere_bound,
    table1_report,
    table2_report,
    TABLE2_REFERENCE,
)
from .channels import (
    CHANNEL_KINDS,
    ProductChannel,
    ball_overlap,
    corrects_t_errors,
    make_channel,
    simulate_channel,
)
from .cyclic import (
    BUILTIN_EXTENDED,
    BUILTIN_PLAIN,
    SearchConfig,
    builtin_table_generators,
    search_cyclic,
    search_extended,
)
from .groups import AbelianGroup, cr_code, vt_code
from .io import (
    CodeFileError,
    ReportDocument,
    parse_code_file,
    parse_decimal,
    parse_ints,
    parse_symbols,
    write_code_file,
)
from .linearq import (
    MatrixModZq,
    concat_code,
    codewords_of,
    double_code,
    hamming_parity_check,
    lee_parity_check,
    nullspace,
)
from .ternary import (
    construct_even,
    construct_extended,
    construct_odd_mixed,
    image_channel,
    prefix_parts,
)
from .words import (
    AlphabetSpec,
    CodeBook,
    DecodeAmbiguity,
    DecodeFailure,
    EnumerationCapExceeded,
    _asym_witness,
    _lm_witness,
    _separator,
    decode_asymmetric,
    enum_cap_from_environment,
    is_t_code,
    min_asym_distance,
    Word,
)

OK, VERIFY_FAILED, USAGE = 0, 1, 2


def integer(text: str) -> int:
    """An integer flag, read by the one token rule of every text input."""
    (value,) = parse_ints([text])
    return value


def decimal(text: str) -> float:
    """A decimal flag, read by the one decimal token rule; argparse's error names it."""
    return parse_decimal(text)


def _read_code(path: str) -> CodeBook:
    return parse_code_file(Path(path).read_text())


def _emit_code(c: CodeBook, out: str | None):
    text = write_code_file(c)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: ReportDocument, path: str | None):
    if path:
        Path(path).write_text(report.to_json())


def _parse_word(text: str, alphabet: AlphabetSpec) -> Word:
    """The word as a code file line of this alphabet reads; Word rejects
    symbols outside the alphabet."""
    return Word(tuple(parse_symbols(text, _separator(alphabet.sizes))), alphabet)


def _default_oracle_channel(c: CodeBook) -> ProductChannel:
    """The decrement chain on every coordinate, which is Z on a binary one:
    the channel of `verify --model ball` and of `simulate --channel auto`."""
    graphs = tuple(make_channel("chain", q) for q in c.alphabet.sizes)
    return ProductChannel(graphs)


def _witness(c: CodeBook, model: str, t: int, ell: int = 1, wrap: bool = False) -> dict | None:
    """Check c under a `verify` model with one oracle or kernel call: None
    on "yes", else the witness, printed and as a report entry."""
    if model == "ball":
        overlap = ball_overlap(c, _default_oracle_channel(c), t)
        if overlap is None:
            return None
        received, x, y = (str(w) for w in overlap)
        print(f"witness: {received} lies in the radius-{t} error balls of {x} and {y}",
              file=sys.stderr)
        return {"received": received, "x": x, "y": y}
    if model == "asym":
        pair, metric = _asym_witness(c, t), "asymmetric"
    else:
        pair, metric = _lm_witness(c, t, ell, wrap), "limited-magnitude"
    if pair is None:
        return None
    d, i, j = pair
    x, y = str(c.word(i)), str(c.word(j))
    print(f"witness: {x} and {y} at {metric} distance {d}", file=sys.stderr)
    return {"x": x, "y": y, "distance": d}


def _outer_q_r(flag: str, value: str, tail: str = "") -> tuple[int, int, bool]:
    """Q and R of an outer-code flag, which takes exactly Q,R, or also
    Q,R,`tail` where a tail is given, and whether the tail was there."""
    parts = value.split(",")
    if len(parts) == 2 or tail and parts[2:] == [tail]:
        try:
            q, r = parse_ints(parts[:2])
            return q, r, len(parts) == 3
        except ValueError:
            pass
    form = f"Q,R or Q,R,{tail}" if tail else "Q,R"
    raise ValueError(f"{flag} takes {form} with integers Q and R, got {value!r}")


def _cmd_construct(args) -> int:
    which = args.what
    if which == "vt":
        code = vt_code(args.n, args.g_int, args.q)
    elif which == "cr":
        group = AbelianGroup.parse(args.group)
        g = tuple(parse_ints(args.g.split(","))) if args.g else None
        code = cr_code(group, g, args.q)
    elif which == "ternary":
        if args.infile is not None and (args.in0, args.in1) != (None, None):
            raise ValueError("--in excludes --in0 and --in1: give --in, or both --in0 and --in1")
        if args.in0 or args.in1:
            if not (args.in0 and args.in1):
                raise ValueError("extended construction needs both --in0 and --in1")
            c0, c1 = _read_code(args.in0), _read_code(args.in1)
            code = construct_extended(c0, c1, check=not args.unchecked)
        else:
            if not args.infile:
                raise ValueError("--in is required")
            inner = _read_code(args.infile)
            if all(q == 3 for q in inner.alphabet.sizes):
                code = construct_even(inner, check=not args.unchecked)
            else:
                code = construct_odd_mixed(inner, check=not args.unchecked)
        _emit_code(code, args.out)
        print(f"constructed ({code.n},{len(code)}) binary code", file=sys.stderr)
        return OK
    elif which == "concat":
        outer_flags = {"--outer-gen": args.outer_gen, "--outer-hamming": args.outer_hamming,
                       "--outer-lee": args.outer_lee}
        given = [flag for flag, value in outer_flags.items() if value is not None]
        if len(given) > 1:
            raise ValueError(f"{' and '.join(given)} exclude each other: give one outer code")
        if args.outer_gen:
            outer = MatrixModZq.from_text(Path(args.outer_gen).read_text())
        elif args.outer_hamming:
            q, r, _ = _outer_q_r("--outer-hamming", args.outer_hamming)
            outer = nullspace(hamming_parity_check(q, r))
        elif args.outer_lee:
            q, r, partial = _outer_q_r("--outer-lee", args.outer_lee, "partial")
            outer = nullspace(lee_parity_check(q, r, full=not partial))
        else:
            raise ValueError("give --outer-gen, --outer-hamming or --outer-lee")
        cc = concat_code(outer, shorten_to_odd=args.shorten, check=not args.unchecked)
        if args.matrix_out:
            Path(args.matrix_out).write_text(cc.generator.to_text())
        print(
            f"constructed [{cc.length},{cc.dimension}]_{cc.q} code"
            " (outer +-1 single-error condition verified)"
            if not args.unchecked
            else f"constructed [{cc.length},{cc.dimension}]_{cc.q} code (unchecked)",
            file=sys.stderr,
        )
        try:
            book = cc.codebook()
        except EnumerationCapExceeded:
            if args.out:
                raise ValueError("code too large to enumerate into --out") from None
            return OK
        if not args.unchecked and _witness(book, "asym", 1) is not None:
            print("VERIFICATION FAILED: output is not a 1-code", file=sys.stderr)
            return VERIFY_FAILED
        if args.out:
            _emit_code(book, args.out)
        return OK
    elif which in ("hamming", "lee"):
        if which == "hamming":
            H = hamming_parity_check(args.q, args.r)
        else:
            H = lee_parity_check(args.q, args.r, full=not args.partial)
        if args.matrix_out:
            Path(args.matrix_out).write_text(H.to_text())
        else:
            sys.stdout.write(H.to_text())
        if args.out:
            _emit_code(codewords_of(H), args.out)
        return OK
    elif which == "double":
        inner = _read_code(args.infile)
        code = double_code(inner)
        _emit_code(code, args.out)
        if len(code) >= 2:
            print(f"min asymmetric distance {min_asym_distance(code)}", file=sys.stderr)
        return OK
    else:
        raise AssertionError(which)

    # vt / cr fall through to shared verify-and-write
    if not args.unchecked and _witness(code, "ball", 1) is not None:
        print("VERIFICATION FAILED: output is not a 1-code", file=sys.stderr)
        return VERIFY_FAILED
    _emit_code(code, args.out)
    print(f"constructed ({code.n},{len(code)}) code over q={args.q}", file=sys.stderr)
    return OK


def _cmd_verify(args) -> int:
    detail = {"model": args.model, "t": args.t}
    ell = 1 if args.l is None else args.l
    if args.model == "limited":
        detail.update(l=ell, wrap=args.wrap)
    elif args.l is not None or args.wrap:
        raise ValueError(f"--l and --wrap apply only to --model limited, not {args.model}")
    code = _read_code(args.infile)
    witness = _witness(code, args.model, args.t, ell, args.wrap)
    ok = witness is None
    results = {"size": len(code), "n": code.n, "verified": ok}
    if witness:
        results["witness"] = witness
    report = ReportDocument(
        command=["verify"],
        parameters={"in": args.infile, **detail},
        results=results,
    )
    _emit_json(report, args.json)
    print("VERIFIED" if ok else "NOT VERIFIED")
    return OK if ok else VERIFY_FAILED


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        seed=args.seed,
        time_budget=args.budget,
        strategy=args.strategy,
    )
    if args.what == "cyclic":
        if args.out1:
            raise ValueError("--out1 names the part-1 file of search extended; "
                             "search cyclic writes one code")
        code = search_cyclic(args.m, cfg)
        _emit_code(code, args.out)
        results = {"score": int(code.meta["score"]), "size": len(code), "meta": code.meta}
    else:
        part0, part1 = search_extended(args.m, cfg)
        _emit_code(part0, args.out)
        if args.out1:
            _emit_code(part1, args.out1)
        results = {
            "score": int(part0.meta["score"]),
            "sizes": [len(part0), len(part1)],
            "meta": part0.meta,
        }
    report = ReportDocument(
        command=["search", args.what],
        parameters={"m": args.m, "strategy": args.strategy, "budget": args.budget},
        results=results,
        seed=args.seed,
    )
    _emit_json(report, args.json)
    print(f"best score {results['score']} (proven optimal: {results['meta']['proven_optimal']})",
          file=sys.stderr)
    return OK


def _cmd_decode(args) -> int:
    code = _read_code(args.code)
    received = _parse_word(args.received, code.alphabet)
    try:
        word = decode_asymmetric(code, received, args.t)
    except DecodeAmbiguity as e:
        print(f"AMBIGUOUS: {len(e.candidates)} candidates")
        for candidate in e.candidates:
            print(str(candidate))
        return VERIFY_FAILED
    except DecodeFailure:
        print("FAILURE: no codeword within range")
        return VERIFY_FAILED
    print(str(word))
    return OK


def _cmd_simulate(args) -> int:
    code = _read_code(args.code)
    if args.channel == "auto":
        ch = _default_oracle_channel(code)
    else:
        ch = ProductChannel(tuple(make_channel(args.channel, q) for q in code.alphabet.sizes))
    result = simulate_channel(
        code,
        ch,
        trials=args.trials,
        seed=args.seed,
        t=args.t,
        p=args.p,
        force_errors=args.force_errors,
    )
    report = ReportDocument(
        command=["simulate"],
        parameters={"code": args.code, "channel": args.channel, "p": args.p,
                    "force_errors": args.force_errors, "trials": args.trials,
                    "t": args.t},
        results={"failures": result.failures, "failure_rate": result.failure_rate,
                 "decoder": result.decoder},
        seed=args.seed,
    )
    _emit_json(report, args.json)
    print(f"failure rate {result.failure_rate:.6f} ({result.failures}/{result.trials})")
    return OK


def _cmd_bound(args) -> int:
    print(sphere_bound(args.q, args.n, args.t, args.l))
    return OK


def _cmd_tables(args) -> int:
    if args.which == "table1":
        report = table1_report()
        sys.stdout.write(format_table(report))
        _emit_json(ReportDocument(command=["tables", "table1"], results=report), args.json)
        return OK
    if args.which == "table2":
        report = table2_report()
        sys.stdout.write(format_table(report))
        _emit_json(ReportDocument(command=["tables", "table2"], results=report), args.json)
        ok = all(r["cr_matches_reference"] and r["cyclic_matches_reference"]
                 for r in report["rows"])
        return OK if ok else VERIFY_FAILED
    # verify-generators: oracle-check every bundled code on its product
    # channel (a split code's parts behind their literal bit), then its image
    codes = [(m, False, builtin_table_generators(m)) for m in sorted(BUILTIN_PLAIN)]
    codes += [(m, True, prefix_parts(*builtin_table_generators(m, extended=True)))
              for m in sorted(BUILTIN_EXTENDED)]
    rows = []
    for m, extended, code in codes:
        ok = corrects_t_errors(code, image_channel(code.alphabet.sizes), 1)
        image = construct_odd_mixed(code, check=False)
        expected = TABLE2_REFERENCE[2 * m + extended]["cyclic"]
        good = ok and len(image) == expected and is_t_code(image, 1)
        rows.append({"m": m, "extended": extended, "oracle": ok, "image_size": len(image),
                     "expected": expected, "ok": good})
    report = {"table": "verify-generators", "rows": rows}
    sys.stdout.write(format_table(report))
    _emit_json(ReportDocument(command=["tables", "verify-generators"], results=report),
               args.json)
    return OK if all(r["ok"] for r in rows) else VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="asymcodes", description=__doc__)
    p.add_argument("--version", action="version", version=f"asymcodes {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a code and verify it")
    cs = c.add_subparsers(dest="what", required=True)

    vt = cs.add_parser("vt")
    vt.add_argument("--n", type=integer, required=True)
    vt.add_argument("--g", dest="g_int", type=integer, default=0)
    vt.add_argument("--q", type=integer, default=2)

    cr = cs.add_parser("cr")
    cr.add_argument("--group", required=True, help="cyclic factors, e.g. 3x3")
    cr.add_argument("--g", default=None, help="target element, e.g. 0,0")
    cr.add_argument("--q", type=integer, default=2)

    tern = cs.add_parser("ternary")
    tern.add_argument("--in", dest="infile", default=None)
    tern.add_argument("--in0", default=None)
    tern.add_argument("--in1", default=None)

    conc = cs.add_parser("concat")
    conc.add_argument("--outer-gen", default=None)
    conc.add_argument("--outer-hamming", default=None, metavar="Q,R")
    conc.add_argument("--outer-lee", default=None, metavar="Q,R[,partial]")
    conc.add_argument("--shorten", action="store_true")
    conc.add_argument("--matrix-out", default=None)

    ham = cs.add_parser("hamming")
    ham.add_argument("--q", type=integer, required=True)
    ham.add_argument("--r", type=integer, required=True)
    ham.add_argument("--matrix-out", default=None)

    lee = cs.add_parser("lee")
    lee.add_argument("--q", type=integer, required=True)
    lee.add_argument("--r", type=integer, required=True)
    lee.add_argument("--partial", action="store_true",
                     help="drop columns whose first row is zero")
    lee.add_argument("--matrix-out", default=None)

    dbl = cs.add_parser("double")
    dbl.add_argument("--in", dest="infile", required=True)

    for sp in (vt, cr, tern, conc, ham, lee, dbl):
        sp.add_argument("--out", default=None)
    for sp in (vt, cr, tern, conc):
        sp.add_argument("--unchecked", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="check a code file against a model")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--model", choices=["asym", "limited", "ball"], required=True,
                   help="asym: asymmetric distance > t; limited: limited-magnitude "
                        "distance; ball: disjoint radius-t error balls on the "
                        "decrement chain")
    v.add_argument("--t", type=integer, required=True)
    v.add_argument("--l", type=integer, default=None,
                   help="--model limited only: largest error magnitude (default 1)")
    v.add_argument("--wrap", action="store_true",
                   help="--model limited only: errors wrap around modulo q")
    v.add_argument("--json", default=None)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("search", help="search for shift-closed ternary codes")
    s.add_argument("what", choices=["cyclic", "extended"])
    s.add_argument("--m", type=integer, required=True)
    s.add_argument("--seed", type=integer, default=0)
    s.add_argument("--budget", type=decimal, default=60.0,
                   help="node budget: the exact strategy expands at most 50 000 "
                        "nodes per unit (default 60)")
    s.add_argument("--strategy", default="exact-clique",
                   choices=["exact-clique", "greedy", "randomized-restart"])
    s.add_argument("--out", default=None)
    s.add_argument("--out1", default=None, help="search extended: the part-1 code file")
    s.add_argument("--json", default=None)
    s.set_defaults(func=_cmd_search)

    d = sub.add_parser("decode", help="decrement decoding: look the received word's "
                                      "up-ball up in the code (size checked against "
                                      "the enumeration cap)")
    d.add_argument("--code", required=True)
    d.add_argument("--received", required=True)
    d.add_argument("--t", type=integer, required=True)
    d.set_defaults(func=_cmd_decode)

    sim = sub.add_parser("simulate", help="Monte Carlo channel simulation")
    sim.add_argument("--code", required=True)
    sim.add_argument("--p", type=decimal, default=None)
    sim.add_argument("--force-errors", type=integer, default=None)
    sim.add_argument("--trials", type=integer, required=True)
    sim.add_argument("--seed", type=integer, required=True)
    sim.add_argument("--t", type=integer, default=1)
    sim.add_argument("--channel", default="auto",
                     choices=["auto", *CHANNEL_KINDS])
    sim.add_argument("--json", default=None)
    sim.set_defaults(func=_cmd_simulate)

    b = sub.add_parser("bound", help="exact bounds")
    bs = b.add_subparsers(dest="which", required=True)
    sph = bs.add_parser("sphere")
    sph.add_argument("--q", type=integer, required=True)
    sph.add_argument("--n", type=integer, required=True)
    sph.add_argument("--t", type=integer, required=True)
    sph.add_argument("--l", type=integer, required=True)
    sph.set_defaults(func=_cmd_bound)

    t = sub.add_parser("tables", help="reproduce the summary tables")
    t.add_argument("which", choices=["table1", "table2", "verify-generators"])
    t.add_argument("--json", default=None)
    t.set_defaults(func=_cmd_tables)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enum_cap_from_environment()
        return args.func(args)
    except (CodeFileError, EnumerationCapExceeded, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
