"""Command-line interface.

Subcommands: construct, certify, code, distance, decode, simulate, diagnose.
Exit status is 0 on success, 1 on validation failures (including usage
errors), and 2 on I/O failures.  Every output file embeds provenance (input
digests, tool version, config echo) under "result" and wall-clock data under
"timing"; repeated runs with the same seed are byte-identical outside
"timing".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import css, decoder, expansion, gf2, harness, jsonio, product
from .errors import (BudgetExceededError, InternalInvariantError, OracleUnavailableError,
                     ValidationError)
from .gf2 import F2Vector
from .graphs import GraphAction, graph_from_json
from .groups import GroupAction, group_from_json
from .jsonio import _first_repeat, _int_rows, _size_value, parse_rational


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with "-" for an option unless it
        # looks like a negative number, which by default means -1 or -0.5.
        # Rational flags also take -1/30, so that a negative fraction reaches
        # the same range check as a negative integer.
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message: str) -> None:
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qbp", description="balanced-product CSS codes toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a product complex from factor files")
    p.add_argument("--left", required=True, help="first factor graph JSON")
    p.add_argument("--right", required=True, help="second factor graph JSON")
    p.add_argument("--group", help="group JSON (omit for the hypergraph product)")
    p.add_argument("--actions", help="actions JSON with left_v0/left_v1/right_v0/right_v1 tables")
    p.add_argument("--out", required=True)

    p = sub.add_parser("certify", help="certify lossless expansion of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--side", choices=["0to1", "1to0"], default="0to1")
    p.add_argument("--c", required=True, help="small-set fraction, exact rational")
    p.add_argument("--epsilon", required=True, help="loss parameter, exact rational")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=expansion.DEFAULT_CERTIFY_BUDGET)
    p.add_argument("--out")

    p = sub.add_parser("code", help="extract the CSS code and its parameters")
    p.add_argument("--complex", required=True)
    p.add_argument("--out-prefix", help="write <prefix>.hx.alist, <prefix>.hz.alist, <prefix>.json")
    p.add_argument("--format", choices=["json", "alist"], default="json",
                   help="stdout summary format when no prefix is given")

    p = sub.add_parser("distance", help="brute-force distance oracles")
    p.add_argument("--complex", required=True)
    p.add_argument("--which", choices=["x", "z", "both"], default="both")
    p.add_argument("--budget", type=int, default=css.DEFAULT_KERNEL_BUDGET)
    p.add_argument("--out")

    p = sub.add_parser("decode", help="decode one syndrome")
    p.add_argument("--complex", required=True)
    p.add_argument("--syndrome", required=True, help="JSON with length and support")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--side", choices=["z", "x"], default="z",
                   help="z decodes an X syndrome on V11; x a Z syndrome on V00")
    p.add_argument("--cap", type=int, default=1 << 16)
    p.add_argument("--trace", help="write a JSON-lines trace here")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="Monte Carlo decoding campaign")
    p.add_argument("--complex", required=True)
    p.add_argument("--error-weight", type=int)
    p.add_argument("--iid-p", help="i.i.d. flip probability, exact rational")
    p.add_argument("--sweep", action="store_true", help="enumerate all supports of the given weight")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("diagnose", help="face-level region report for one error")
    p.add_argument("--complex", required=True)
    p.add_argument("--error", required=True, help="JSON with length n and support")
    p.add_argument("--epsilon", required=True, help="chain parameter, exact rational")
    p.add_argument("--epsilon-x", help="partition loss for the V00-V10 side (default: --epsilon)")
    p.add_argument("--epsilon-y", help="partition loss for the V00-V01 side (default: --epsilon)")
    p.add_argument("--out")
    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    started = time.time()
    try:
        result, digests, out_path = _COMMANDS[args.command](args)
    except (ValidationError, BudgetExceededError, OracleUnavailableError,
            ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    if result is None:
        return 0             # the command already streamed its output
    result["provenance"] = jsonio.provenance_block(digests, _config_echo(args))
    if out_path:
        try:
            jsonio.write_result(out_path, result, {"wall_seconds": time.time() - started})
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(jsonio.canonical_dumps({"result": result}))
    return 0


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in ("out", "out_prefix", "trace"):
            continue
        echo[key] = value
    return echo


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _load_vector(path: str) -> F2Vector:
    """Load `{length, support}`: an int length within the declared-size budget
    and a list of distinct int indices."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValidationError(
            f"vector JSON in {path} must be an object, got {type(obj).__name__}")
    try:
        length, support = obj["length"], obj["support"]
    except KeyError as exc:
        raise ValidationError(f"malformed vector JSON in {path}: missing {exc}") from exc
    if not isinstance(support, list):
        raise ValidationError(
            f"vector support must be a list of ints, got {type(support).__name__}")
    (indices,) = _int_rows([support], "vector support")
    if len(set(indices)) != len(indices):
        raise ValidationError(f"vector support repeats index {indices[_first_repeat(indices)]}")
    return F2Vector.from_support(_size_value(length, "vector length"), indices)


def _digests(inputs: dict[str, str]) -> dict[str, str]:
    """Each input file's SHA-256 by name: a command hashes each input file
    once, for its provenance block and any file it writes them into."""
    by_path = {path: jsonio.file_digest(path) for path in set(inputs.values())}
    return {name: by_path[path] for name, path in inputs.items()}


def _load_code(path: str) -> css.CssCode:
    """The CSS code of the complex in the file at `path`."""
    return css.extract_code(product.complex_from_json(_load_json(path)))


def _cmd_construct(args) -> tuple[dict, dict, Optional[str]]:
    left = graph_from_json(_load_json(args.left))
    right = graph_from_json(_load_json(args.right))
    inputs = {"left": args.left, "right": args.right}
    if args.group or args.actions:
        if not (args.group and args.actions):
            raise ValidationError("--group and --actions must be given together")
        group = group_from_json(_load_json(args.group))
        acts = _load_json(args.actions)
        if not isinstance(acts, dict):
            raise ValidationError(
                f"actions JSON must be an object of four tables, got {type(acts).__name__}")
        # Each raw table is popped as it is converted, so at most one is
        # held twice; a translation table becomes the group's own object.
        try:
            ax = GraphAction(group, GroupAction.from_table(group, acts.pop("left_v0")),
                             GroupAction.from_table(group, acts.pop("left_v1")))
            ay = GraphAction(group, GroupAction.from_table(group, acts.pop("right_v0")),
                             GroupAction.from_table(group, acts.pop("right_v1")))
        except KeyError as exc:
            raise ValidationError(f"actions JSON is missing table {exc}") from exc
        cpx = product.balanced_product(left, ax, right, ay)
        inputs.update({"group": args.group, "actions": args.actions})
    else:
        cpx = product.hypergraph_product(left, right)
    # The builder's verdict holds by proof (see `product.balanced_product`).
    print("chain condition: pass")
    payload = product.complex_to_json(cpx)
    payload["provenance_files"] = digests = _digests(inputs)
    Path(args.out).write_text(jsonio.canonical_dumps(payload))
    summary = {
        "written": args.out,
        "v00": cpx.v00_size, "v10": cpx.v10_size,
        "v01": cpx.v01_size, "v11": cpx.v11_size,
        "faces": len(cpx.faces),
        "chain_condition": "pass",
    }
    return summary, digests, None


def _cmd_certify(args) -> tuple[dict, dict, Optional[str]]:
    graph = graph_from_json(_load_json(args.graph))
    cert = expansion.certify_expansion(
        graph, args.side, parse_rational(args.c), parse_rational(args.epsilon),
        mode=args.mode, trials=args.trials, seed=args.seed, budget=args.budget,
    )
    return cert.to_json(), _digests({"graph": args.graph}), args.out


def _cmd_code(args) -> tuple[Optional[dict], dict, Optional[str]]:
    code = _load_code(args.complex)
    params = css.code_params(code)
    digests = _digests({"complex": args.complex})
    manifest = css.export_manifest(code, params, digests)
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        (prefix.parent or Path(".")).mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.hx.alist").write_text(gf2.to_alist(code.hx))
        Path(f"{prefix}.hz.alist").write_text(gf2.to_alist(code.hz))
        Path(f"{prefix}.json").write_text(jsonio.canonical_dumps(manifest))
        manifest = dict(manifest, written=[f"{prefix}.hx.alist", f"{prefix}.hz.alist", f"{prefix}.json"])
    elif args.format == "alist":
        sys.stdout.write(gf2.to_alist(code.hx))
        sys.stdout.write(gf2.to_alist(code.hz))
        return None, digests, None
    return manifest, digests, None


def _cmd_distance(args) -> tuple[dict, dict, Optional[str]]:
    code = _load_code(args.complex)
    out: dict = {}
    sides = ["x", "z"] if args.which == "both" else [args.which]
    for side in sides:
        report = css.brute_distance(code, side, budget=args.budget)
        out[f"d_{side}"] = report.d
        out[f"no_logicals_{side}"] = report.no_logicals
        out[f"kernel_dim_{side}"] = report.kernel_dim
    ds = [out.get("d_x"), out.get("d_z")]
    known = [d for d in ds if d is not None]
    out["d"] = min(known) if len(known) == len(sides) and known else None
    out["budget"] = args.budget
    return out, _digests({"complex": args.complex}), args.out


def _cmd_decode(args) -> tuple[dict, dict, Optional[str]]:
    # The decoder reads the complex alone, so no code is extracted.
    cpx = product.complex_from_json(_load_json(args.complex))
    syndrome = _load_vector(args.syndrome)
    # Nothing written reads the per-step flip sets, so none are kept.
    config = decoder.DecoderConfig(epsilon=parse_rational(args.epsilon), iteration_cap=args.cap,
                                   keep_flip_sets=False)
    decode = decoder.decode if args.side == "z" else decoder.decode_x
    result = decode(cpx, syndrome, config)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.writelines(json.dumps(step.to_json(), sort_keys=True) + "\n" for step in result.trace)
    inputs = {"complex": args.complex, "syndrome": args.syndrome}
    return result.to_json(), _digests(inputs), args.out


def _cmd_simulate(args) -> tuple[dict, dict, Optional[str]]:
    code = _load_code(args.complex)
    config = harness.ExperimentConfig(
        epsilon=parse_rational(args.epsilon),
        trials=args.trials,
        seed=args.seed,
        weight=args.error_weight,
        flip_probability=parse_rational(args.iid_p) if args.iid_p else None,
        sweep=args.sweep,
    )
    result = harness.run_simulation(code, config)
    payload = result.to_json()
    payload["config"] = config.echo()
    return payload, _digests({"complex": args.complex}), args.out


def _cmd_diagnose(args) -> tuple[dict, dict, Optional[str]]:
    # The region report reads the complex alone, so no code is extracted: the
    # loader has already settled the chain condition that extraction checks.
    cpx = product.complex_from_json(_load_json(args.complex))
    error = _load_vector(args.error)
    if error.length != cpx.n_qubits:
        raise ValidationError(f"error length {error.length} != n = {cpx.n_qubits}")
    split = cpx.v10_size
    v10 = frozenset(i for i in error.support if i < split)
    v01 = frozenset(i - split for i in error.support if i >= split)
    if cpx.degrees is None:
        raise ValidationError("diagnostics need biregular factors")
    eps = parse_rational(args.epsilon)
    eps_x = parse_rational(args.epsilon_x) if args.epsilon_x else eps
    eps_y = parse_rational(args.epsilon_y) if args.epsilon_y else eps
    # The epsilons are the user's claim of expansion, so a partition they
    # cannot support is refused input, not a broken invariant.
    try:
        part10 = expansion.tree_partition(cpx.subgraph("v00_v10"), v10, eps_x,
                                          cpx.degrees.down)
        part01 = expansion.tree_partition(cpx.subgraph("v00_v01"), v01, eps_y,
                                          cpx.degrees.right)
    except InternalInvariantError as exc:
        raise ValidationError(f"the given epsilon cannot partition the error: {exc}") from exc
    report = decoder.region_diagnostics(cpx, v10, v01, part10, part01, epsilon=eps)
    payload = {
        "touched": report.touched_total,
        "stray": report.stray_total,
        "multihit": report.multihit_total,
        "excess": report.excess_total,
        "flipped": report.flipped_total,
        "lit": report.lit_total,
        "unique": report.unique_total,
        "syndrome_weight": report.syndrome_weight,
        "counting_bound_ok": report.counting_bound_ok,
        "chain_ok": report.chain_ok,
        "per_vertex": {str(k): v for k, v in sorted(report.per_vertex.items())},
    }
    return payload, _digests({"complex": args.complex, "error": args.error}), args.out


_COMMANDS = {
    "construct": _cmd_construct,
    "certify": _cmd_certify,
    "code": _cmd_code,
    "distance": _cmd_distance,
    "decode": _cmd_decode,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
}


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
