"""Command line front end.

Two subcommands.  `enumerate` streams one of the three tree families as
JSON records (one per line) or DOT graphs (blank-line separated).
`verify` runs identity suites and prints one verdict per comparison,
exiting 0 only if every comparison held; `verify all` runs the whole
battery.

Every family of checks has a default sweep bound and a hard ceiling.
Bounds can be raised per run with --r/--n/--max-size or a numeric
--budget, but never past the ceiling: factorial and Catalan growth make
accidental huge runs too easy, so over-ceiling requests are refused
outright rather than truncated.  The environment variable
HOOKLAB_BUDGET_CEILING replaces the ceilings for people who know what
they are asking for.

Reports are deterministic: running the same command twice gives the
same output except for elapsed_ms, and --threads (worker processes,
at most the CPU count) only changes how enumeration work is chunked,
never a verdict or a hash.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from hooklab import hookformula as hf
from hooklab import kerov as kv
from hooklab import recurrences as rc
from hooklab import trees as tr
from hooklab.multipoly import top_homogeneous
from hooklab.reports import VerdictReport, compare_sides

__all__ = ["main"]

ORACLE_SEED = 1729
ORACLE_INSTANCES = 50
ORACLE_MAX_R = 6

# check name -> (default sweep bound, hard ceiling)
VERIFY_BUDGETS = {
    "theorem1": (8, 10),
    "postnikov": (8, 10),
    "binary-hooks": (8, 10),
    "cayley": (6, 7),
    "fibers": (6, 7),
    "pq": (7, 9),
    "grafting": (7, 9),
    "root-recurrence": (7, 9),
    "mvl": (7, 9),
    "kerov": (8, 9),
}
# the exhaustive relabelling part of binary-hooks grows much faster
# than the shape sums, so it keeps its own cap within the sweep
LABELLING_CEILING = 9

ENUMERATE_BUDGETS = {"increasing": 10, "cayley": 7, "binary": 12}

CHECK_ORDER = list(VERIFY_BUDGETS)


class UsageError(Exception):
    """Bad invocation: conflicting flags, out-of-budget sizes, bad paths."""


def _env_ceiling(base: int) -> int:
    raw = os.environ.get("HOOKLAB_BUDGET_CEILING")
    if raw is None:
        return base
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"HOOKLAB_BUDGET_CEILING must be an integer, got {raw!r}"
        ) from None


def _verify_bound(check: str, args) -> int:
    default, ceiling = VERIFY_BUDGETS[check]
    ceiling = _env_ceiling(ceiling)
    if check == "kerov":
        explicit = args.max_size
    elif check == "binary-hooks":
        explicit = args.n
    else:
        explicit = args.r
    if explicit is None and args.budget != "default":
        try:
            explicit = int(args.budget)
        except ValueError:
            raise UsageError(
                f"--budget wants an integer or 'default', got {args.budget!r}"
            ) from None
    bound = default if explicit is None else explicit
    if bound < 1:
        raise UsageError(f"{check} needs a bound of at least 1, got {bound}")
    if bound > ceiling:
        raise UsageError(
            f"{check} is capped at {ceiling} (asked for {bound}); "
            "set HOOKLAB_BUDGET_CEILING to raise the cap"
        )
    return bound


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, round((time.perf_counter() - t0) * 1000.0, 3)


def run_theorem1(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(1, bound + 1):
        (lhs, rhs), ms = _timed(
            lambda r=r: (hf.hook_weight_sum(r, threads), hf.hook_weight_closed_form(r))
        )
        out.append(compare_sides("theorem1", {"r": r}, lhs, rhs, ms))
    return out


def run_postnikov(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(1, bound + 1):
        (lhs_uni, rhs), ms = _timed(lambda r=r: hf.increasing_hook_sum(r))
        out.append(compare_sides("postnikov", {"r": r}, lhs_uni, rhs, ms))
        (lhs, rhs), ms = _timed(lambda r=r: hf.uniform_chain_sides(r, lhs_uni))
        out.append(compare_sides("postnikov/chain", {"r": r}, lhs, rhs, ms))
    return out


def run_binary_hooks(bound: int, threads: int, trace: bool) -> list:
    out = []
    for n in range(1, bound + 1):
        (lhs, rhs), ms = _timed(lambda n=n: hf.binary_hook_sum(n))
        out.append(compare_sides("binary-hooks/shape-identity", {"n": n}, lhs, rhs, ms))
        total, ms = _timed(lambda n=n: hf.binary_reciprocal_hook_sum(n))
        out.append(compare_sides("binary-hooks/reciprocal-sum", {"n": n}, total, 1, ms))
    for n in range(1, min(bound, LABELLING_CEILING) + 1):
        t0 = time.perf_counter()
        trees = agreed = 0
        for t in tr.enumerate_increasing(range(1, n + 1)):
            lext, quotient = hf.linear_extension_check(t)
            trees += 1
            if lext == quotient:
                agreed += 1
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        out.append(
            compare_sides("binary-hooks/labelling-count", {"n": n}, trees, agreed, ms)
        )
    return out


def run_cayley(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(2, bound + 1):
        (lhs, rhs), ms = _timed(lambda r=r: hf.cayley_degree_identity(r, threads))
        out.append(compare_sides("cayley", {"r": r}, lhs, rhs, ms))
        top, ms = _timed(lambda r=r: hf.top_weight_sum(r))
        out.append(compare_sides("cayley/top-weight-sum", {"r": r}, top, rhs, ms))
    return out


def run_fibers(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(1, bound + 1):
        t0 = time.perf_counter()
        sums = hf.cayley_fiber_sums(r)
        trees = fiber_eq = top_eq = 0
        for t in tr.enumerate_increasing(range(1, r + 1)):
            trees += 1
            top = hf.top_weight(t, r)
            if sums.get(t) == top:
                fiber_eq += 1
            if top == top_homogeneous(hf.tree_weight(t, r)):
                top_eq += 1
        preimages = sum(
            int(c) for poly in sums.values() for c in poly.terms.values()
        )
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        out.append(compare_sides("fibers/degree-sum", {"r": r}, trees, fiber_eq, ms))
        out.append(compare_sides("fibers/top-of-weight", {"r": r}, trees, top_eq, 0.0))
        out.append(compare_sides("fibers/surjective", {"r": r}, trees, len(sums), 0.0))
        out.append(
            compare_sides("fibers/partition", {"r": r}, tr.cayley_count(r), preimages, 0.0)
        )
    return out


def _split_entry(x1, x2, p) -> dict:
    return {"x1": list(x1), "x2": list(x2), "terms": len(p), "text": p.to_text()}


def _partition_entry(part, p) -> dict:
    return {"blocks": [list(b) for b in part], "terms": len(p), "text": p.to_text()}


def _traced(trace: bool, summands, entry) -> tuple:
    """(payload, summands) for a side that sums them: under --trace the
    stream renders each summand into the payload as the sum consumes it."""
    if not trace:
        return None, None
    payload: list = []

    def stream():
        for s in summands:
            payload.append(entry(*s))
            yield s

    return payload, stream()


def run_pq(bound: int, threads: int, trace: bool) -> list:
    out = []
    # split_polynomial(r), built once by the pq comparison and read back
    # by the split family's checks at r and, through the finite
    # difference, at r + 1
    splits: dict = {}
    for r in range(2, bound + 1):
        payload, summands = _traced(trace, rc.split_summands(r), _split_entry)
        (lhs, rhs), ms = _timed(
            lambda r=r: (rc.split_polynomial(r, summands), rc.closed_polynomial(r))
        )
        splits[r] = lhs
        out.append(compare_sides("pq", {"r": r}, lhs, rhs, ms, trace=payload))
        for name, family in (
            ("split", splits.__getitem__),
            ("closed", rc.closed_polynomial),
        ):
            (lhs, rhs), ms = _timed(
                lambda r=r, f=family: rc.constant_term_sides(r, f)
            )
            out.append(
                compare_sides("pq/constant-term", {"r": r, "family": name}, lhs, rhs, ms)
            )
            (lhs, rhs), ms = _timed(
                lambda r=r, f=family: rc.finite_difference_sides(r, f)
            )
            out.append(
                compare_sides(
                    "pq/finite-difference", {"r": r, "family": name}, lhs, rhs, ms
                )
            )
        splits.pop(r - 1, None)
    return out


def run_grafting(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(2, bound + 1):
        t0 = time.perf_counter()
        trees = agreed = 0
        for t in tr.enumerate_increasing(range(1, r + 1)):
            lhs, rhs = rc.grafting_law_sides(t, r)
            trees += 1
            if lhs == rhs:
                agreed += 1
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        out.append(compare_sides("grafting/law", {"r": r}, trees, agreed, ms))
        payload, summands = _traced(trace, rc.grafting_split_summands(r), _split_entry)
        (lhs, rhs), ms = _timed(lambda r=r: rc.grafting_split_sides(r, summands))
        out.append(compare_sides("grafting/split", {"r": r}, lhs, rhs, ms, trace=payload))
    return out


def run_root_recurrence(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(2, bound + 1):
        payload, summands = _traced(trace, rc.root_degree_summands(r), _partition_entry)
        (lhs, rhs), ms = _timed(lambda r=r: rc.root_degree_sides(r, summands))
        out.append(
            compare_sides("root-recurrence", {"r": r}, lhs, rhs, ms, trace=payload)
        )
    return out


def run_mvl(bound: int, threads: int, trace: bool) -> list:
    out = []
    for r in range(2, bound + 1):
        payload, summands = _traced(trace, rc.lagrange_summands(r), _partition_entry)
        (lhs, rhs), ms = _timed(lambda r=r: rc.lagrange_identity_sides(r, summands))
        out.append(compare_sides("mvl", {"r": r}, lhs, rhs, ms, trace=payload))
    rng = random.Random(ORACLE_SEED)
    max_r = min(bound, ORACLE_MAX_R)
    t0 = time.perf_counter()
    agreed = 0
    for _ in range(ORACLE_INSTANCES):
        r = rng.randint(2, max_r)
        kvals = [rng.randint(1, 10) for _ in range(r)]
        if rc.lagrange_series_oracle(r, kvals) == rc.oracle_closed_form(r, kvals):
            agreed += 1
    ms = round((time.perf_counter() - t0) * 1000.0, 3)
    out.append(
        compare_sides(
            "mvl/oracle",
            {"instances": ORACLE_INSTANCES, "max_r": max_r, "seed": ORACLE_SEED},
            ORACLE_INSTANCES,
            agreed,
            ms,
        )
    )
    return out


def run_kerov(bound: int, threads: int, trace: bool) -> list:
    out = []
    for n in range(1, bound + 1):
        t0 = time.perf_counter()
        rows = []
        mus = list(kv.partitions_of(n))
        for mu, count in zip(mus, kv.factorization_counts(mus, threads)):
            j = mu.cycle_index
            bg_sum = sum(
                kv.bedard_goupil(lam, mu)
                for lam in kv.partitions_of(n)
                if lam.length == j - 1
            )
            signed = kv.signed_factorization_count(mu)
            closed = kv.factorization_count_closed_form(mu)
            ok = count == bg_sum == closed == abs(signed)
            ok = ok and kv.binomial_simplification_check(mu)
            tree_sum = None
            if mu.length <= kv.TREE_BRIDGE_BOUND:
                tree_sum = kv.tree_sum_at(mu)
                ok = ok and tree_sum == count and kv.closed_rhs_at(mu) == count
            rows.append(
                {
                    "mu": list(mu.parts),
                    "j": j,
                    "count": count,
                    "bg_sum": bg_sum,
                    "signed": signed,
                    "tree_sum": tree_sum,
                    "pass": ok,
                }
            )
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        passed = sum(1 for row in rows if row["pass"])
        out.append(
            compare_sides("kerov", {"size": n}, len(rows), passed, ms, trace=rows)
        )
    return out


RUNNERS = {
    "theorem1": run_theorem1,
    "postnikov": run_postnikov,
    "binary-hooks": run_binary_hooks,
    "cayley": run_cayley,
    "fibers": run_fibers,
    "pq": run_pq,
    "grafting": run_grafting,
    "root-recurrence": run_root_recurrence,
    "mvl": run_mvl,
    "kerov": run_kerov,
}


def _kerov_table_lines(reports: list) -> list:
    header = (
        f"{'mu':<18}{'j':>3} {'count':>8} {'bg-sum':>8} {'signed':>8} {'tree-sum':>9}  ok"
    )
    lines = [header, "-" * len(header)]
    for v in reports:
        if v.check != "kerov":
            continue
        for row in v.trace:
            mu_text = ",".join(str(p) for p in row["mu"])
            tree_sum = "-" if row["tree_sum"] is None else str(row["tree_sum"])
            lines.append(
                f"{mu_text:<18}{row['j']:>3} {row['count']:>8} {row['bg_sum']:>8} "
                f"{row['signed']:>8} {tree_sum:>9}  {'yes' if row['pass'] else 'NO'}"
            )
    return lines


def cmd_verify(args) -> tuple[str, int]:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    checks = CHECK_ORDER if args.check == "all" else [args.check]
    bounds = {c: _verify_bound(c, args) for c in checks}
    reports: list[VerdictReport] = []
    for c in checks:
        reports.extend(RUNNERS[c](bounds[c], args.threads, args.trace))
    all_pass = all(v.equal for v in reports)
    if args.json:
        doc = {
            "command": "verify",
            "checks": [v.to_json_dict() for v in reports],
            "pass": all_pass,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        if any(v.check == "kerov" for v in reports):
            lines.extend(_kerov_table_lines(reports))
            lines.append("")
        lines.extend(v.format_line() for v in reports)
        failed = sum(1 for v in reports if not v.equal)
        lines.append("")
        if failed:
            lines.append(f"{len(reports)} comparisons, {failed} FAILED")
        else:
            lines.append(f"{len(reports)} comparisons, all passed")
        text = "\n".join(lines) + "\n"
    return text, 0 if all_pass else 1


def _resolve_format(args) -> str:
    if args.json and args.dot:
        raise UsageError("--json and --dot conflict")
    fmt = args.format
    if args.json:
        if fmt == "dot":
            raise UsageError("--json conflicts with --format dot")
        fmt = "json"
    if args.dot:
        if fmt == "json":
            raise UsageError("--dot conflicts with --format json")
        fmt = "dot"
    return fmt or "json"


def cmd_enumerate(args) -> tuple[str, int]:
    family, size = args.family, args.size
    ceiling = _env_ceiling(ENUMERATE_BUDGETS[family])
    floor = 0 if family == "binary" else 1
    if size < floor:
        raise UsageError(f"enumerate {family} needs size >= {floor}, got {size}")
    if size > ceiling:
        raise UsageError(
            f"enumerate {family} is capped at {ceiling} (asked for {size}); "
            "set HOOKLAB_BUDGET_CEILING to raise the cap"
        )
    fmt = _resolve_format(args)
    if family == "increasing":
        items = tr.enumerate_increasing(range(1, size + 1))
        if fmt == "json":
            chunks = [json.dumps(t.to_json_dict(), sort_keys=True) for t in items]
        else:
            chunks = [t.to_dot(f"t{i}") for i, t in enumerate(items)]
    elif family == "cayley":
        items = tr.enumerate_cayley(size)
        if fmt == "json":
            chunks = [json.dumps(u.to_json_dict(), sort_keys=True) for u in items]
        else:
            chunks = [u.to_dot(f"t{i}") for i, u in enumerate(items)]
    else:
        items = tr.enumerate_binary(size)
        if fmt == "json":
            chunks = [
                json.dumps(tr.binary_to_json_dict(b), sort_keys=True) for b in items
            ]
        else:
            chunks = [tr.binary_to_dot(b, f"t{i}") for i, b in enumerate(items)]
    sep = "\n" if fmt == "json" else "\n\n"
    return sep.join(chunks) + "\n", 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooklab",
        description="Enumerate tree families and verify hook weight identities exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser(
        "enumerate", help="stream every member of a tree family"
    )
    enum_p.add_argument(
        "family", choices=["increasing", "cayley", "binary"], help="tree family"
    )
    enum_p.add_argument("size", type=int, help="number of vertices")
    enum_p.add_argument(
        "--format", choices=["json", "dot"], default=None, help="output format"
    )
    enum_p.add_argument("--json", action="store_true", help="same as --format json")
    enum_p.add_argument("--dot", action="store_true", help="same as --format dot")
    enum_p.add_argument("--out", default=None, help="write to a file instead of stdout")

    verify_p = sub.add_parser(
        "verify", help="run identity checks and report verdicts"
    )
    verify_p.add_argument(
        "check", choices=CHECK_ORDER + ["all"], help="which identity family to verify"
    )
    verify_p.add_argument(
        "--r", type=int, default=None, help="largest size for size-swept checks"
    )
    verify_p.add_argument(
        "--n", type=int, default=None, help="largest size for the binary-hooks sweep"
    )
    verify_p.add_argument(
        "--max-size",
        type=int,
        dest="max_size",
        default=None,
        help="largest partition size for the kerov sweep",
    )
    verify_p.add_argument(
        "--budget",
        default="default",
        help="sweep bound for all selected checks: an integer, or 'default'",
    )
    verify_p.add_argument("--json", action="store_true", help="emit a JSON report")
    verify_p.add_argument(
        "--trace",
        action="store_true",
        help="attach per-split/per-partition summands where applicable",
    )
    verify_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes (at most the CPU count) for the big sweeps",
    )
    verify_p.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


def _write_out(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            text, code = cmd_enumerate(args)
        else:
            text, code = cmd_verify(args)
        _write_out(text, args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
