"""Command line front end.

Two subcommands.  `enumerate` streams one of the three tree families as
JSON records (one per line), or with --dot as DOT graphs (blank-line
separated).  `verify` runs identity suites and prints one verdict per
comparison, or with --json one report, exiting 0 only if every
comparison held; `verify all` runs the whole battery.  Either writes
to stdout or to the file --out names.  That file's temporary twin is
opened once the arguments check out and before any work, so an
unwritable path fails at once, and renamed onto it when the run ends,
so a run that raises leaves the file as it was.

Each family of checks is declared once, in FAMILIES: the size flag
that sets its bound (--n for binary-hooks, --max-size for kerov, --r
for the rest), its first size (2 for cayley, pq, grafting,
root-recurrence and mvl, 1 for the rest), a default bound, a hard
ceiling and the sweep that yields its comparisons.  Bounds can be
raised per run with the size flag, but never past the ceiling:
factorial and Catalan growth make accidental huge runs too
easy, so over-ceiling requests are refused outright rather than
truncated.  The ceiling is the only size limit a sweep meets, and the
environment variable HOOKLAB_BUDGET_CEILING replaces it, for every
family, for people who know what they are asking for; enumerate's
sizes are capped the same way.  A bound below a family's first size,
which would compare nothing, is refused, and so is a size flag that no
selected family reads (`verify all` reads all three).  The one
module-level cache, hookformula's tree weight sums, lasts for one
verify run.

Reports are deterministic: running the same command twice gives the
same output except for elapsed_ms.  Every sweep runs in this one
process.  --threads is still accepted, and a value below 1 still
refused, so that existing command lines keep running; it changes
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
import time
from typing import Callable, NamedTuple

from hooklab import hookformula as hf
from hooklab import kerov as kv
from hooklab import recurrences as rc
from hooklab import trees as tr
from hooklab.multipoly import MonomialTable, MultiPoly, top_homogeneous
from hooklab.reports import VerdictReport, compare_sides

__all__ = ["FAMILIES", "main", "run_family"]

ORACLE_SEED = 1729
ORACLE_INSTANCES = 50
ORACLE_MAX_R = 6

ENUMERATE_BUDGETS = {"increasing": 10, "cayley": 7, "binary": 12}


class UsageError(Exception):
    """Bad invocation: conflicting flags, out-of-budget sizes, bad paths."""


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _check_bound(what: str, bound: int, first: int, ceiling: int) -> int:
    """bound, refused unless it lies from first up to ceiling, or up to
    HOOKLAB_BUDGET_CEILING when that is set, to an int of at least 1:
    the one size check of both subcommands."""
    raw = os.environ.get("HOOKLAB_BUDGET_CEILING")
    if raw is not None:
        try:
            ceiling = int(raw)
        except ValueError:
            ceiling = 0  # not an integer: refused as values below 1 are
        if ceiling < 1:
            raise UsageError(
                f"HOOKLAB_BUDGET_CEILING must be an integer of at least 1, got {raw!r}"
            )
    if bound < first:
        raise UsageError(f"{what} needs a bound of at least {first}, got {bound}")
    if bound > ceiling:
        raise UsageError(
            f"{what} is capped at {ceiling} (asked for {bound}); "
            "set HOOKLAB_BUDGET_CEILING to raise the cap"
        )
    return bound


def _verify_bound(check: str, args) -> int:
    family = FAMILIES[check]
    explicit = getattr(args, family.flag)
    bound = family.default if explicit is None else explicit
    return _check_bound(check, bound, family.first, family.ceiling)


def _theorem1(sizes: range, trace: bool):
    for r in sizes:
        lhs = hf.hook_weight_sum(r)
        yield "theorem1", {"r": r}, lhs, hf.hook_weight_closed_form(r), None


def _postnikov(sizes: range, trace: bool):
    for r in sizes:
        lhs_uni, rhs = hf.increasing_hook_sum(r)
        yield "postnikov", {"r": r}, lhs_uni, rhs, None
        lhs, rhs = hf.uniform_chain_sides(r, lhs_uni)
        yield "postnikov/chain", {"r": r}, lhs, rhs, None


def _binary_hooks(sizes: range, trace: bool):
    for n in sizes:
        lhs, rhs = hf.binary_hook_sum(n)
        yield "binary-hooks/shape-identity", {"n": n}, lhs, rhs, None
        total = hf.binary_reciprocal_hook_sum(n)
        yield "binary-hooks/reciprocal-sum", {"n": n}, total, 1, None
    # the labelling count is checked once per unordered shape, generated
    # directly (trees.rooted_shapes): a shape passes when its extension
    # count equals its hook quotient and |Aut| divides it, and then
    # stands for lext/|Aut| increasing trees.  Only that total ties the
    # shapes to the (n-1)! trees, so a lost, doubled or failing shape
    # fails the check.  The extension count's memo grows about 4x per
    # size, which the family's ceiling bounds.
    for n in sizes:
        agreed = 0
        for key, pv in tr.rooted_shapes(n):
            lext, quotient = hf.linear_extension_check(pv)
            trees, rem = divmod(lext, tr.automorphisms(key))
            agreed += trees * (lext == quotient and not rem)
        yield "binary-hooks/labelling-count", {"n": n}, tr.increasing_count(n), agreed, None


def _cayley(sizes: range, trace: bool):
    for r in sizes:
        lhs, rhs = hf.cayley_degree_identity(r)
        yield "cayley", {"r": r}, lhs, rhs, None
        yield "cayley/top-weight-sum", {"r": r}, hf.top_weight_sum(r), rhs, None


def _fibers(sizes: range, trace: bool):
    for r in sizes:
        sums = hf.cayley_fiber_sums(r)
        units = hf._label_keys(range(1, r + 1), r)
        fiber_eq = top_eq = 0
        for pv in tr.parent_vectors(r):
            top = MultiPoly._raw(r, hf._weight_terms(units, pv, top_only=True))
            fiber_eq += sums.get(pv) == top
            top_eq += top == top_homogeneous(MultiPoly._raw(r, hf._weight_terms(units, pv)))
        preimages = sum(
            int(c) for poly in sums.values() for c in poly.terms.values()
        )
        # the agreeing trees are compared with all (r-1)! of them, not
        # with the trees enumerated, so a lost tree fails
        trees = tr.increasing_count(r)
        yield "fibers/degree-sum", {"r": r}, trees, fiber_eq, None
        yield "fibers/top-of-weight", {"r": r}, trees, top_eq, None
        yield "fibers/surjective", {"r": r}, trees, len(sums), None
        yield "fibers/partition", {"r": r}, tr.cayley_count(r), preimages, None


def _split_entry(table, x1, x2, p) -> dict:
    return {"x1": list(x1), "x2": list(x2), "terms": len(p), "text": p.to_text(table=table)}


def _partition_entry(table, part, p) -> dict:
    text = p.to_text(table=table)
    return {"blocks": [list(b) for b in part], "terms": len(p), "text": text}


def _traced(trace: bool, r: int, summands, entry) -> tuple:
    """(payload, summands) for a side that sums them: under --trace the
    stream renders each summand into the payload as the sum consumes it.
    The summands of one stream share one monomial table, which goes
    with the stream."""
    if not trace:
        return None, None
    payload: list = []
    table = MonomialTable(r)

    def stream():
        for s in summands:
            payload.append(entry(table, *s))
            yield s

    return payload, stream()


def _pq(sizes: range, trace: bool):
    # split_polynomial(r) and closed_polynomial(r), each built once by
    # the pq comparison and read back by its family's checks at r and,
    # through the finite difference, at r + 1
    splits: dict = {}
    closeds: dict = {}
    for r in sizes:
        payload, summands = _traced(trace, r, rc.split_summands(r), _split_entry)
        splits[r] = rc.split_polynomial(r, summands)
        closeds[r] = rc.closed_polynomial(r)
        yield "pq", {"r": r}, splits[r], closeds[r], payload
        for name, built in (("split", splits), ("closed", closeds)):
            params = {"r": r, "family": name}
            lhs, rhs = rc.constant_term_sides(r, built.__getitem__)
            yield "pq/constant-term", params, lhs, rhs, None
            lhs, rhs = rc.finite_difference_sides(r, built.__getitem__)
            yield "pq/finite-difference", params, lhs, rhs, None
            built.pop(r - 1, None)


def _grafting(sizes: range, trace: bool):
    for r in sizes:
        agreed = sum(map(rc.grafting_law_holds, tr.parent_vectors(r)))
        yield "grafting/law", {"r": r}, tr.increasing_count(r), agreed, None
        payload, summands = _traced(trace, r, rc.grafting_split_summands(r), _split_entry)
        lhs, rhs = rc.grafting_split_sides(r, summands)
        yield "grafting/split", {"r": r}, lhs, rhs, payload


def _root_recurrence(sizes: range, trace: bool):
    for r in sizes:
        payload, summands = _traced(trace, r, rc.root_degree_summands(r), _partition_entry)
        lhs, rhs = rc.root_degree_sides(r, summands)
        yield "root-recurrence", {"r": r}, lhs, rhs, payload


def _mvl(sizes: range, trace: bool):
    for r in sizes:
        payload, summands = _traced(trace, r, rc.lagrange_summands(r), _partition_entry)
        lhs, rhs = rc.lagrange_identity_sides(r, summands)
        yield "mvl", {"r": r}, lhs, rhs, payload
    rng = random.Random(ORACLE_SEED)
    max_r = min(sizes[-1], ORACLE_MAX_R)
    agreed = 0
    for _ in range(ORACLE_INSTANCES):
        r = rng.randint(2, max_r)
        kvals = [rng.randint(1, 10) for _ in range(r)]
        agreed += rc.lagrange_series_oracle(r, kvals) == rc.oracle_closed_form(r, kvals)
    params = {"instances": ORACLE_INSTANCES, "max_r": max_r, "seed": ORACLE_SEED}
    yield "mvl/oracle", params, ORACLE_INSTANCES, agreed, None


def _kerov(sizes: range, trace: bool):
    for n in sizes:
        rows = []
        for mu in kv.partitions_of(n):
            count = kv.count_factorizations(mu)
            j = kv.cycle_index(mu)
            bg_sum = sum(
                kv.bedard_goupil(lam, mu)
                for lam in kv.partitions_of(n)
                if len(lam) == j - 1
            )
            signed = kv.signed_factorization_count(mu)
            closed = kv.factorization_count_closed_form(mu)
            ok = count == bg_sum == closed == abs(signed)
            ok = ok and kv.binomial_simplification_check(mu)
            tree_sum = None
            if len(mu) <= kv.TREE_BRIDGE_BOUND:
                tree_sum = kv.tree_sum_at(mu)
                ok = ok and tree_sum == count and kv.closed_rhs_at(mu) == count
            rows.append(
                {
                    "mu": list(mu),
                    "j": j,
                    "count": count,
                    "bg_sum": bg_sum,
                    "signed": signed,
                    "tree_sum": tree_sum,
                    "pass": ok,
                }
            )
        passed = sum(1 for row in rows if row["pass"])
        yield "kerov", {"size": n}, len(rows), passed, rows


class Family(NamedTuple):
    """How one verify family is swept.

    flag is the option that sets its bound (r, n or max_size), first the
    smallest size it compares, default and ceiling its bounds.
    sweep(sizes, trace) yields (check, params, lhs, rhs, trace)
    for every comparison over the sizes in order.  The ceiling is the
    only limit on the sizes, and HOOKLAB_BUDGET_CEILING replaces it.
    """

    flag: str
    first: int
    default: int
    ceiling: int
    sweep: Callable


# in `verify all` order
FAMILIES = {
    "theorem1": Family("r", 1, 8, 10, _theorem1),
    "postnikov": Family("r", 1, 8, 10, _postnikov),
    "binary-hooks": Family("n", 1, 8, 10, _binary_hooks),
    "cayley": Family("r", 2, 6, 7, _cayley),
    "fibers": Family("r", 1, 6, 7, _fibers),
    "pq": Family("r", 2, 7, 9, _pq),
    "grafting": Family("r", 2, 7, 9, _grafting),
    "root-recurrence": Family("r", 2, 7, 9, _root_recurrence),
    "mvl": Family("r", 2, 7, 9, _mvl),
    "kerov": Family("max_size", 1, 8, 9, _kerov),
}


def run_family(name: str, bound: int, trace: bool = False) -> list:
    """The verdicts of one family swept from its first size to bound.

    Each comparison's elapsed_ms is the time the sweep took to produce
    its two sides; summarizing them is not counted.  A bound below the
    first size, which would compare nothing, raises ValueError before
    any work; the ceiling is the caller's to apply.
    """
    family = FAMILIES[name]
    if bound < family.first:
        raise ValueError(f"{name} starts at size {family.first}, got bound {bound}")
    sweep = family.sweep(range(family.first, bound + 1), trace)
    out = []
    while True:
        t0 = time.perf_counter()
        item = next(sweep, None)
        if item is None:
            return out
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        check, params, lhs, rhs, payload = item
        out.append(compare_sides(check, params, lhs, rhs, ms, trace=payload))


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


def cmd_verify(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    checks = list(FAMILIES) if args.check == "all" else [args.check]
    read = {FAMILIES[c].flag for c in checks}
    for flag in ("r", "n", "max_size"):
        if getattr(args, flag) is not None and flag not in read:
            raise UsageError(
                f"{args.check} takes {_option(FAMILIES[args.check].flag)}, "
                f"not {_option(flag)}"
            )
    bounds = {c: _verify_bound(c, args) for c in checks}
    with _output(args.out) as stream:
        reports: list[VerdictReport] = []
        try:
            for c in checks:
                reports.extend(run_family(c, bounds[c], args.trace))
        finally:
            # the sweep cache serves one run: a second run redoes its work
            hf.tree_weight_sum.cache_clear()
        all_pass = all(v.equal for v in reports)
        if args.json:
            doc = {
                "command": "verify",
                "checks": [v.to_json_dict() for v in reports],
                "pass": all_pass,
            }
            json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")
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
            stream.write("\n".join(lines) + "\n")
    return 0 if all_pass else 1


def cmd_enumerate(args) -> int:
    family, size = args.family, args.size
    first = 0 if family == "binary" else 1
    _check_bound(f"enumerate {family}", size, first, ENUMERATE_BUDGETS[family])
    if family == "increasing":
        items = tr.parent_vectors(size)
        to_json, to_dot = tr.increasing_to_json_dict, tr.increasing_to_dot
    elif family == "cayley":
        items = tr.cayley_edge_lists(size)
        to_json, to_dot = tr.cayley_to_json_dict, tr.cayley_to_dot
    else:
        items = tr.enumerate_binary(size)
        to_json, to_dot = tr.binary_to_json_dict, tr.binary_to_dot
    with _output(args.out) as stream:
        for i, t in enumerate(items):
            if args.dot:
                stream.write(("\n" if i else "") + to_dot(t, f"t{i}") + "\n")
            else:
                stream.write(json.dumps(to_json(t), sort_keys=True) + "\n")
    return 0


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
        "--dot", action="store_true", help="emit DOT graphs instead of JSON records"
    )
    enum_p.add_argument("--out", default=None, help="write to a file instead of stdout")

    verify_p = sub.add_parser(
        "verify", help="run identity checks and report verdicts"
    )
    verify_p.add_argument(
        "check", choices=[*FAMILIES, "all"], help="which identity family to verify"
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
        help="accepted so that existing command lines still run; it changes "
        "nothing, as every sweep runs in one process",
    )
    verify_p.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


@contextlib.contextmanager
def _output(out_path):
    """stdout, or the file at out_path; a path that cannot be opened for
    writing is a usage error.

    A file is written under a temporary name beside out_path and renamed
    onto it only once the body has finished, so a run that raises leaves
    out_path as it was.  Something other than a file already at out_path
    (a device, a pipe) is written in place.
    """
    if out_path is None:
        yield sys.stdout
        return
    target = os.path.realpath(out_path)  # a symlink is written through
    in_place = os.path.exists(target) and not os.path.isfile(target)
    path = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(path, target)
    except BaseException:
        if not in_place:
            os.unlink(path)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
