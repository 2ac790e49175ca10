"""Command line front end.

Exit codes: 0 for definite answers, 2 when the answer is Unknown or an
exploration/simulation stopped on budget, 1 on any error, including an
internal failure such as a witness that fails its region-graph check in
decide (one "error:" line on stderr, no traceback).  Rationals are printed
as "num/den" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import decide, mcm, poly, regions, symbolic
from .decide import EMPTY, NONEMPTY, UNKNOWN
from .errors import ParataurError, UnknownIdentifierError
from .model import (
    MAX_LOWER_MIN_UPPER,
    MIN_LOWER_MAX_UPPER,
    ParamValuation,
    Pta,
    classify,
    instantiate,
    instantiate_extreme,
    parse_model,
    serialize,
    serialize_ta,
)
from .symbolic import Budget

PROPS = ("EF", "EFU", "EC", "EG", "ED", "IP")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; keep 2 reserved for Unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message) from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str) -> Pta:
    return parse_model(_read_text(path))


def _parse_targets(spec: str, pta: Pta) -> frozenset[str]:
    names = frozenset(t.strip() for t in spec.split(",") if t.strip())
    known = {loc.name for loc in pta.locations}
    for t in sorted(names - known):
        raise UnknownIdentifierError(f"unknown target location {t!r}")
    if not names:
        raise UnknownIdentifierError("empty target set")
    return names


def _parse_values(spec: str, pta: Pta) -> ParamValuation:
    values = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or name not in pta.parameters:
            raise UnknownIdentifierError(f"bad assignment {part!r}")
        try:
            values[name] = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise UnknownIdentifierError(f"bad rational in {part!r}") from None
    return ParamValuation.of(values)


def _budget(args) -> Budget:
    return Budget(max_states=args.max_states, max_depth=args.max_depth)


def _frac(x: Fraction) -> str:
    return str(x)


def _valuation_json(v: ParamValuation) -> dict:
    return {name: _frac(val) for name, val in v.as_dict().items()}


def _constraint_json(c: poly.Polyhedron) -> list[str]:
    return list(c.debug_strings())


def _witness_json(w: decide.Witness | None) -> dict | None:
    if w is None:
        return None
    out: dict = {"valuation": _valuation_json(w.valuation)}
    if w.path is not None:
        out["path"] = list(w.path)
    return out


def _text_lines(obj, prefix: str = "") -> list[str]:
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            lines += _text_lines(v, key)
        return lines
    if isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return [f"{prefix}: [{', '.join(str(v) for v in obj)}]"]
        lines = []
        for i, v in enumerate(obj):
            lines += _text_lines(v, f"{prefix}[{i}]")
        return lines
    return [f"{prefix}: {obj}"]


def _emit(obj: dict, args) -> None:
    if args.seed is not None:
        obj = {**obj, "seed": args.seed}
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print("\n".join(_text_lines(obj)))


def _cmd_classify(args) -> int:
    pta = _load_model(args.model)
    cls = classify(pta)
    lu = None
    if cls.lu_partition is not None:
        lower, upper = cls.lu_partition
        lu = {"lower": sorted(lower), "upper": sorted(upper)}
    _emit({
        "name": pta.name,
        "clocks": list(pta.clocks),
        "parameters": list(pta.parameters),
        "lu_partition": lu,
        "is_closed": cls.is_closed,
        "is_bounded": cls.is_bounded,
        "bounds_all_closed": cls.bounds_all_closed,
        "is_reset_pta": cls.is_reset_pta,
        "ip_sufficient": cls.ip_sufficient,
    }, args)
    return 0


def _verdict_json(v: decide.Verdict) -> dict:
    return {
        "property": v.property,
        "answer": v.answer,
        "method": v.method,
        "budget_hit": v.budget_hit,
        "witness": _witness_json(v.witness),
    }


def _cmd_check(args) -> int:
    pta = _load_model(args.model)
    budget = _budget(args)
    prop = args.prop
    targets: frozenset[str] = frozenset()
    if prop in ("EF", "EFU", "EG"):
        if not args.targets:
            raise UnknownIdentifierError(f"--prop {prop} requires --targets")
        targets = _parse_targets(args.targets, pta)

    if prop == "ED":
        union, status = decide.ed_synth_semi(pta, budget)
        if not union.empty:
            answer, witness = NONEMPTY, decide.ed_witness(pta, union)
        elif status == symbolic.COMPLETE:
            answer, witness = EMPTY, None
        else:
            answer, witness = UNKNOWN, None
        _emit({
            "property": "ED",
            "answer": answer,
            "status": status,
            "disjuncts": [_constraint_json(d) for d in union.disjuncts],
            "witness": _witness_json(witness),
        }, args)
        return 0 if answer != UNKNOWN else 2

    if prop == "IP":
        result = decide.ip_check(pta, budget)
        state = None
        if result.state is not None:
            state = {"location": result.state.location,
                     "constraint": _constraint_json(result.state.constraint)}
        _emit({
            "property": "IP",
            "kind": result.kind,
            "complete": result.complete,
            "state": state,
        }, args)
        if result.kind == decide.CONFIRMED_UP_TO_BUDGET and not result.complete:
            return 2
        return 0

    if prop == "EF":
        verdict = decide.ef_emptiness(pta, targets, budget,
                                      assert_ip=args.assert_ip)
    elif prop == "EFU":
        verdict = decide.ef_universality(pta, targets)
    elif prop == "EC":
        verdict = decide.ec_emptiness(pta)
    else:
        verdict = decide.eg_emptiness(pta, targets, budget)
    _emit(_verdict_json(verdict), args)
    return 0 if verdict.answer != UNKNOWN else 2


def _cmd_synth_int(args) -> int:
    pta = _load_model(args.model)
    targets = _parse_targets(args.targets, pta)
    hits = decide.ef_synth_int(pta, targets, _budget(args))
    _emit({
        "property": "EF_synth_int",
        "count": len(hits.valuations),
        "valuations": [_valuation_json(v) for v in hits.valuations],
    }, args)
    return 0


def _cmd_explore(args) -> int:
    pta = _load_model(args.model)
    result = symbolic.explore(pta, _budget(args))
    out = {
        "status": result.status,
        "state_count": len(result.states),
        "edge_count": len(result.edges),
    }
    if args.dump:
        out["states"] = [
            {"location": s.location, "constraint": _constraint_json(s.constraint)}
            for s in result.states
        ]
    _emit(out, args)
    return 0 if result.complete else 2


def _cmd_instantiate(args) -> int:
    pta = _load_model(args.model)
    if args.extreme:
        ta = instantiate_extreme(pta, args.extreme)
    elif args.values is not None:
        ta = instantiate(pta, _parse_values(args.values, pta))
    else:
        raise UnknownIdentifierError("need --values or --extreme")
    if args.dump_regions:
        count, initial = regions.enumeration_size(ta)
        _emit({
            "ta": json.loads(serialize_ta(ta)),
            "regions": {
                "count": count,
                "reachable": len(regions.build_region_graph(ta).nodes),
                "initial": initial,
            },
        }, args)
    else:
        print(serialize_ta(ta))
    return 0


def _cmd_compile_2cm(args) -> int:
    machine = mcm.parse_machine(_read_text(args.program), name=args.name)
    pta = mcm.compile_to_pta(machine, variant=args.variant)
    print(serialize(pta))
    return 0


def _cmd_simulate_2cm(args) -> int:
    machine = mcm.parse_machine(_read_text(args.program), name=args.name)
    report = mcm.simulate(machine, max_steps=args.max_steps)
    out = {
        "halted": report.halted,
        "steps": report.steps,
        "counters": list(report.counters),
        "max_counter": report.max_counter,
        "budget_hit": report.budget_hit,
    }
    if args.dump:
        out["trace"] = list(report.trace)
    _emit(out, args)
    return 2 if report.budget_hit else 0


def _add_common(p: argparse.ArgumentParser, model: bool = True):
    if model:
        p.add_argument("model", help="model file, or - for stdin")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int,
                   help="echoed in output for reproducibility")


def _at_least(low: int):
    """An argparse type: an int of at least low.  Malformed text keeps
    argparse's "invalid int value" message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"
    return parse


def _add_budget(p: argparse.ArgumentParser):
    p.add_argument("--max-states", type=_at_least(1), default=Budget.max_states)
    p.add_argument("--max-depth", type=_at_least(0), default=Budget.max_depth)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(prog="parataur",
                     description="exact analysis of parametric timed automata")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("classify", help="syntactic subclass flags")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="decide or semi-decide a property")
    _add_common(p)
    p.add_argument("--prop", choices=PROPS, required=True)
    p.add_argument("--targets", help="comma-separated target locations")
    p.add_argument("--assert-ip", action="store_true",
                   help="trust integer-point sufficiency without the syntactic check")
    _add_budget(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth-int", help="integer valuations reaching the target")
    _add_common(p)
    p.add_argument("--targets", required=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_synth_int)

    p = sub.add_parser("explore", help="budgeted symbolic exploration")
    _add_common(p)
    p.add_argument("--dump", action="store_true", help="print every state")
    _add_budget(p)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("instantiate", help="instantiate parameters to a timed automaton")
    _add_common(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--values", help="comma-separated name=rational")
    g.add_argument("--extreme",
                   choices=(MIN_LOWER_MAX_UPPER, MAX_LOWER_MIN_UPPER))
    p.add_argument("--dump-regions", action="store_true",
                   help="also build the region graph and report its size")
    p.set_defaults(func=_cmd_instantiate)

    p = sub.add_parser("compile-2cm", help="compile a two-counter program")
    p.add_argument("program", help="program file, or - for stdin")
    p.add_argument("--variant", choices=(mcm.CLOSED, mcm.STRICT),
                   default=mcm.CLOSED)
    p.add_argument("--name", default="machine")
    _add_common(p, model=False)
    p.set_defaults(func=_cmd_compile_2cm)

    p = sub.add_parser("simulate-2cm", help="run a two-counter program")
    p.add_argument("program", help="program file, or - for stdin")
    p.add_argument("--max-steps", type=_at_least(0), default=100000)
    p.add_argument("--name", default="machine")
    p.add_argument("--dump", action="store_true", help="include the state trace")
    _add_common(p, model=False)
    p.set_defaults(func=_cmd_simulate_2cm)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        env_seed = os.environ.get("PARATAUR_SEED")
        if args.seed is None and env_seed:
            try:
                args.seed = int(env_seed)
            except ValueError:
                parser.error(f"PARATAUR_SEED: invalid int value: {env_seed!r}")
        return args.func(args)
    except ParataurError as ex:
        print(f"error: {ex.name}: {ex}", file=sys.stderr)
        return 1
    except SystemExit as ex:
        if isinstance(ex.code, str):
            print(ex.code, file=sys.stderr)
            return 1
        return 0 if ex.code is None else int(ex.code)
    except BrokenPipeError:
        return 1
    except OSError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
