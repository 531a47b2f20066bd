"""Command-line front end.

Thin adapter over the library: parse a spec file, build the least model,
and print unfoldings, equivalence verdicts, or reports.  All output is
deterministic for a fixed seed; exit codes are 0 (ok), 1 (syntax),
2 (validation, usage, input nested too deeply to parse, or a spec error
found while building the model, such as two rules giving one term
different stream steps or a conclusion label outside the label domain),
3 (non-monotone), 4 (non-convergence, or a run that exhausts memory:
error: out of memory), 5 (internal).  Each domain error class carries its
code as exit_code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys

from .engine import (MAX_ITERS, least_model, model_to_dot, model_to_json, unfold,
                     unfold_to_json)
from .errors import BigsosError, NonConvergenceError
from .relations import check_equivalence, congruence_test, law_suite, suite_to_json
from .speclang import check_monotone, parse_spec, validate_spec
from .terms import App, UniversePolicy, parse_term, print_term


def _add_common(sp) -> None:
    caps = UniversePolicy()
    sp.add_argument("spec_file", help="rule specification file")
    sp.add_argument("--universe-count", type=int, default=caps.max_count, metavar="N",
                    help="universe term budget (default %(default)s)")
    sp.add_argument("--universe-size", type=int, default=caps.max_size, metavar="N",
                    help="largest term admitted into the universe (default %(default)s)")
    sp.add_argument("--max-iters", type=int, default=MAX_ITERS, metavar="N")
    sp.add_argument("-d", "--depth", type=int, default=3, metavar="D",
                    help="observation depth (default 3)")
    sp.add_argument("--seed", type=int, default=None, metavar="S",
                    help="PRNG seed; falls back to $BIGSOS_SEED, then 0")
    sp.add_argument("--format", choices=("json", "dot", "text"), default="text")
    sp.add_argument("--force", action="store_true",
                    help="iterate non-monotone specs anyway")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    p = argparse.ArgumentParser(prog="bigsos",
                                description="monotone biGSOS specifications: "
                                            "least models, unfoldings, and laws")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="validate a spec and report monotonicity")
    _add_common(sp)

    sp = sub.add_parser("model", help="compute and print the least model")
    _add_common(sp)
    sp.add_argument("terms", nargs="*", metavar="TERM",
                    help="extra closed seed terms for the universe")

    sp = sub.add_parser("unfold", help="observe a term for a few steps")
    _add_common(sp)
    sp.add_argument("term", metavar="TERM")

    sp = sub.add_parser("equiv", help="compare two terms in the least model")
    _add_common(sp)
    sp.add_argument("term1", metavar="TERM1")
    sp.add_argument("term2", metavar="TERM2")
    sp.add_argument("--rel", choices=("sim", "bisim"), default="bisim")

    sp = sub.add_parser("congruence", help="sampled congruence check")
    _add_common(sp)
    sp.add_argument("terms", nargs="*", metavar="TERM",
                    help="extra closed seed terms for the universe")
    sp.add_argument("--samples", type=int, default=50, metavar="N")

    sp = sub.add_parser("laws", help="check the lifting laws exactly on small generators")
    _add_common(sp)

    return p


def _check_settings(args) -> None:
    """Fill in the seed from $BIGSOS_SEED and reject bad counts, before the
    spec is read or its model built."""
    if args.seed is None:
        text = os.environ.get("BIGSOS_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            raise ValueError(f"BIGSOS_SEED must be an integer, got {text!r}") from None
    for dest in ("universe_count", "universe_size", "max_iters"):
        if getattr(args, dest) < 1:
            raise ValueError(f"--{dest.replace('_', '-')} must be positive")
    if args.depth < 0:
        raise ValueError("--depth must be a natural")
    if getattr(args, "samples", 0) < 0:
        raise ValueError("--samples must be a natural")


def _load_spec(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _seed_terms(spec, texts) -> list:
    """CLI terms are closed: a name outside the signature is an unknown
    operator, not a variable."""
    return [parse_term(text, spec.sig, closed=True) for text in texts]


def _policy(args) -> UniversePolicy:
    return UniversePolicy(max_count=args.universe_count, max_size=args.universe_size)


def _build_model(spec, extra_seeds, args):
    seeds = [App(c) for c in spec.sig.constants()] + list(extra_seeds)
    return least_model(spec, seeds, _policy(args), args.max_iters, force=args.force)


def _converged_model(spec, extra_seeds, args):
    """The least model, if the iteration converged within --max-iters."""
    model, report = _build_model(spec, extra_seeds, args)
    if not report.converged:
        raise NonConvergenceError(f"no convergence within {report.iterations} iterations")
    return model


# --- rendering ---------------------------------------------------------------------


def _model_text(model, report):
    """The model's lines, one at a time."""
    for t in model.universe:
        v = model.behaviour[t]
        if model.kind.is_bottom(v):
            yield f"{print_term(t)} ⊥"
        for lab, target, w in model.kind.moves(v):  # none for bottom
            yield f"{print_term(t)} {model.kind.arrow(lab, w)} {print_term(target)}"
    yield (f"-- iterations {report.iterations}, converged "
           f"{'yes' if report.converged else 'no'}, oscillation "
           f"{'yes' if report.oscillation_detected else 'no'}, "
           f"frontier {report.frontier_size}")


_enc = json.encoder.encode_basestring_ascii
_SCALARS = {str, int, float, bool, type(None)}
_FIXED = {bool: ("false", "true"), type(None): ("null",), dict: ("{}",), list: ("[]",)}


def _scalar(v) -> str:
    """json.dumps(v) of a scalar or an empty container; floats go through it."""
    t = type(v)
    return _enc(v) if t is str else int.__repr__(v) if t is int else \
        _FIXED[t][bool(v)] if t in _FIXED else json.dumps(v)


def _flat(v, level: int):
    """The text of container v at indent level in one join, if v holds only
    scalars or only non-empty string arrays; else None."""
    vals = v.values() if (keyed := isinstance(v, dict)) else v
    kinds = set(map(type, vals))
    sep = ",\n" + "  " * (level + 1)  # sep[1:-2] is the closing line's indent
    if kinds <= _SCALARS:
        texts = list(map(_scalar, vals))
    elif kinds <= {list, tuple} and all(vals) and set(map(type, itertools.chain(*vals))) == {str}:
        start, inner, end = "[" + sep[1:] + "  ", sep + "  ", sep[1:] + "]"
        texts = [start + inner.join(map(_enc, x)) + end for x in vals]
    else:
        return None
    if keyed:
        texts = [_enc(k) + ": " + x for k, x in zip(v, texts)]
    return "[{"[keyed] + sep[1:] + sep.join(texts) + sep[1:-2] + "]}"[keyed]


def _write_json(doc, out) -> None:
    """Write print(json.dumps(doc, indent=2)) of a document with string keys
    to out, one piece per write as it is made.  Containers _flat cannot make
    are walked from a stack of indent levels, so deep ones work."""
    todo: list = [(False, doc, 0)]  # (is text, value or text, indent level)
    while todo:
        is_text, v, level = todo.pop()
        if is_text:  # v is (before, after): before, a newline and indent, after
            text = v[0] + "\n" + "  " * level + v[1]
        elif not (v and isinstance(v, (dict, list, tuple))):
            text = _scalar(v)
        elif (text := _flat(v, level)) is None:
            keyed = isinstance(v, dict)
            entries = [(_enc(k) + ": ", x) for k, x in v.items()] if keyed else [("", x) for x in v]
            text, closing = "{}" if keyed else "[]"
            todo.append((True, ("", closing), level))
            for i in reversed(range(len(entries))):
                key, x = entries[i]
                todo += [(False, x, level + 1), (True, ("," * (i > 0), key), level + 1)]
        out.write(text)
    out.write("\n")


# --- subcommands -------------------------------------------------------------------


def _cmd_check(spec, args, out, err) -> int:
    diags = validate_spec(spec)
    mon = check_monotone(spec)
    if args.format == "json":
        _write_json({"diagnostics": [str(d) for d in diags], "monotone": mon.monotone,
                     "offending_rules": list(mon.offending_rules)}, out)
    else:
        for d in diags:
            print(str(d), file=out)
        if mon.monotone:
            print("monotone: yes", file=out)
        else:
            print("monotone: no (" + ", ".join(mon.offending_rules) + ")", file=out)
    if diags:
        return 2
    if not mon.monotone:
        return 3
    return 0


def _require_valid(spec, err) -> bool:
    diags = validate_spec(spec)
    for d in diags:
        print(str(d), file=err)
    return not diags


def _cmd_model(spec, args, out, err) -> int:
    model, report = _build_model(spec, _seed_terms(spec, args.terms), args)
    fmt = args.format
    if fmt == "dot":
        try:
            out.write(model_to_dot(model))
        except ValueError as exc:
            print(f"warning: {exc}; emitting json", file=err)
            fmt = "json"
    if fmt == "json":
        _write_json(model_to_json(model, report), out)
    elif fmt == "text":
        for line in _model_text(model, report):
            out.write(line + "\n")
    return 0 if report.converged else 4


def _cmd_unfold(spec, args, out, err) -> int:
    term, = _seed_terms(spec, [args.term])
    model = _converged_model(spec, [term], args)
    rows = unfold(model, term, args.depth)
    if args.format == "dot":
        print("warning: dot export is only defined for models; emitting text",
              file=err)
    if args.format == "json":
        _write_json(unfold_to_json(model, rows, args.depth), out)
    else:
        for line in model.kind.unfold_lines(rows, args.depth):
            out.write(line + "\n")
    return 0


def _cmd_equiv(spec, args, out, err) -> int:
    t1, t2 = _seed_terms(spec, [args.term1, args.term2])
    model = _converged_model(spec, [t1, t2], args)
    res = check_equivalence(model, t1, t2, relation=args.rel)
    if args.format == "json":
        _write_json({**res.to_json(), "relation": args.rel}, out)
    else:
        print(f"related: {'yes' if res.related else 'no'}", file=out)
        if res.related:
            print(f"witness: {args.rel} relation with {len(res.witness)} pairs",
                  file=out)
        else:
            print(f"witness: distinguishing depth {res.witness}", file=out)
    return 0


def _cmd_congruence(spec, args, out, err) -> int:
    model = _converged_model(spec, _seed_terms(spec, args.terms), args)
    rep = congruence_test(spec, model, args.samples, depth=args.depth, seed=args.seed)
    if args.format == "json":
        _write_json(rep.to_json(), out)
    else:
        print(f"checked {rep.checked} skipped {rep.skipped} "
              f"violations {len(rep.violations)}", file=out)
        for v in rep.violations:
            print(f"  {print_term(v.left)} !~ {print_term(v.right)}", file=out)
    return 0


def _cmd_laws(spec, args, out, err) -> int:
    results = law_suite(spec, _policy(args))
    if args.format == "json":
        _write_json(suite_to_json(results), out)
    else:
        for r in results:
            print(f"{r.law}: {r.status}", file=out)
    return 0


_COMMANDS = {"check": _cmd_check, "model": _cmd_model, "unfold": _cmd_unfold,
             "equiv": _cmd_equiv, "congruence": _cmd_congruence, "laws": _cmd_laws}


def _dispatch(args, out, err) -> int:
    _check_settings(args)
    spec = _load_spec(args.spec_file)
    if args.cmd != "check" and not _require_valid(spec, err):
        return 2
    return _COMMANDS[args.cmd](spec, args, out, err)


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage, errors and --help to sys.stdout and sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args, out, err)
    except MemoryError:  # matched first, since matching (ValueError, OSError) allocates
        pass  # reported below, once leaving the handler frees the run's frames
    except BigsosError as exc:
        print(f"{'internal error' if exc.exit_code == 5 else 'error'}: {exc}", file=err)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except RecursionError:  # only the parsers, validation and substitute recurse
        print("error: input nested too deeply", file=err)
        return 2
    print("error: out of memory", file=err)
    return 4


def main() -> None:
    sys.exit(run())
