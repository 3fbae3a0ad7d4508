"""The benchmark's workloads: seeded inputs, one request, and its check.

A workload is one fixed list of requests, a pass.  A run repeats the
pass in fresh processes, so that every request is timed several times
and always in the same place in the sequence.

Answers are checked against values the benchmark derives on its own:
the verdicts the paper states for the classic networks and for
generalized Maxwell banks, the global criterion recomputed on the
benchmark's own network trees, and the complex modulus of each fiber
solution.  Nothing is checked against another output of the program.

The program only ever receives generated expression text (and, for the
fiber search, a base point).  Library calls go through module
attributes at call time (``sdident.parse``, ``sdident.cli.build_report``)
so that the tracer's patches are seen.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify_sweep", "prony_report", "fiber_classics", "cli_small")

# ---------------------------------------------------------------------------
# networks as plain trees: ("spring", name) | ("dashpot", name)
#                          ("S", children)  | ("P", children)

SPRING, DASHPOT, SERIES, PARALLEL = "spring", "dashpot", "S", "P"


def is_leaf(tree) -> bool:
    return tree[0] in (SPRING, DASHPOT)


def flatten(tree):
    """Merge nested same-kind nodes, as the network language does."""
    if is_leaf(tree):
        return tree
    kids = []
    for child in tree[1]:
        flat = flatten(child)
        if flat[0] == tree[0]:
            kids.extend(flat[1])
        else:
            kids.append(flat)
    return kids[0] if len(kids) == 1 else (tree[0], tuple(kids))


def to_text(tree) -> str:
    if is_leaf(tree):
        return tree[1]
    if tree[0] == SERIES:
        return " & ".join(
            f"({to_text(c)})" if c[0] == PARALLEL else to_text(c) for c in tree[1]
        )
    return " | ".join(to_text(c) for c in tree[1])


def leaf_names(tree) -> list[str]:
    if is_leaf(tree):
        return [tree[1]]
    return [name for child in tree[1] for name in leaf_names(child)]


def constructible(tree) -> bool:
    """Every internal node of the flattened tree has at most one internal child."""
    if is_leaf(tree):
        return True
    internal = [c for c in tree[1] if not is_leaf(c)]
    return len(internal) <= 1 and all(constructible(c) for c in internal)


def structure_key(tree) -> str:
    """Name-free form, children sorted: equal for the same network up to
    renaming and reordering of commuting branches."""
    if is_leaf(tree):
        return tree[0]
    return tree[0] + "(" + ",".join(sorted(structure_key(c) for c in tree[1])) + ")"


def modulus(tree, values: dict, s: complex) -> complex:
    """Complex modulus G(s): a spring is E, a dashpot eta*s, parallel
    branches add moduli and series branches add compliances."""
    if tree[0] == SPRING:
        return values[tree[1]]
    if tree[0] == DASHPOT:
        return values[tree[1]] * s
    parts = [modulus(c, values, s) for c in tree[1]]
    if tree[0] == PARALLEL:
        return sum(parts)
    return 1 / sum(1 / g for g in parts)


def named(template, rng: random.Random):
    """Give a template of element kinds distinct names with random
    spring prefixes (E, k), dashpot prefixes (n, eta) and suffixes."""
    count = len(leaf_names(template))
    suffixes = rng.sample(range(1, 10 * count + 10), count)
    cursor = iter(suffixes)

    def walk(node):
        if is_leaf(node):
            prefix = rng.choice(("E", "k") if node[0] == SPRING else ("n", "eta"))
            return (node[0], f"{prefix}{next(cursor)}")
        return (node[0], tuple(walk(c) for c in node[1]))

    return walk(template)


def shuffled(tree, rng: random.Random):
    """The same network with the children of every node in random order
    (series and parallel connection both commute)."""
    if is_leaf(tree):
        return tree
    kids = [shuffled(c, rng) for c in tree[1]]
    rng.shuffle(kids)
    return (tree[0], tuple(kids))


def from_expr(expr):
    """The program's network expression in the benchmark's tuple form."""
    from sdident.network import Leaf, Series

    if isinstance(expr, Leaf):
        return (expr.element.kind, expr.element.name)
    kind = SERIES if isinstance(expr, Series) else PARALLEL
    return (kind, tuple(from_expr(c) for c in expr.children))


_S, _D = (SPRING, ""), (DASHPOT, "")


def _ser(*kids):
    return (SERIES, kids)


def _par(*kids):
    return (PARALLEL, kids)


# Classic networks with the verdicts the paper gives for them.  Shapes are
# (high, low) derivative orders of the strain and stress operators.
CLASSICS = {
    "MAXWELL": dict(tree=_ser(_S, _D), net_type="D", eps=[1, 1], sigma=[1, 0], glob="global"),
    "VOIGT": dict(tree=_par(_S, _D), net_type="C", eps=[1, 0], sigma=[0, 0], glob="global"),
    "BURGERS": dict(
        tree=_ser(_par(_S, _D), _S, _D), net_type="D", eps=[2, 1], sigma=[2, 0], glob="global"
    ),
    "GEN_KELVIN_VOIGT": dict(
        tree=_ser(_S, _par(_S, _D), _par(_S, _D), _par(_S, _D)),
        net_type="A",
        eps=[3, 0],
        sigma=[3, 0],
        glob="local-only",
    ),
    # ((((((E1|n1) & E2) & n2) | n3) & E3) | n4) & E4, used by the fiber search only
    "LADDER_8": dict(
        tree=flatten(_ser(_par(_ser(_par(_ser(_ser(_par(_S, _D), _S), _D), _D), _S), _D), _S)),
    ),
}

# The two composition tables of the paper, rows then columns A B C D u.
TABLES = {
    "Parallel": {
        "A": "u C u A u", "B": "C u u B u", "C": "u u u C u",
        "D": "A B C D u", "u": "u u u u u",
    },
    "Series": {
        "A": "u D A u u", "B": "D u B u u", "C": "A B C D u",
        "D": "u u D u u", "u": "u u u u u",
    },
}


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    kind: str  # what the request is, for failure messages
    key: str  # structure key, for the share of repeated structures
    call: Callable[[], object]  # the timed part
    check: Callable[[object], "str | None"]  # error text, or None when right


def _expect(pairs) -> "str | None":
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, expected {want!r}"
    return None


class Workload:
    """A pass lasts a second or two on the tuning host, so that a run of
    half a minute times each request five to ten times."""

    name = ""
    # requests run as child processes: peak memory is theirs, and the
    # host's slowdown is measured by a process launch (reference.py)
    in_children = False

    def __init__(self, seed: int, root: str):
        self.root = root
        self.tracer = None  # set once warmed up, for a traced run
        self.rng = random.Random(f"{self.name}-{seed}")

    def pass_requests(self) -> list[Request]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


class VerifySweep(Workload):
    """parse -> analyze -> verify_local(trials=3) on random networks.

    Request i checks ``sdident.random_network(i, 11)``, with its branches
    reordered and its parameters renamed by the workload seed.  Every run
    thus meets the same structures in the same order: drawing them from
    the seed added the spread of a small sample of structures to the
    host's own.  No structure repeats within a pass, and each pass runs
    in a fresh process, so a cache inside the process never hits.  Only
    the input comes from the program; the expected verdicts are
    recomputed on the benchmark's own tree.
    """

    name = "verify_sweep"
    elements = 11
    size = 20  # requests in a pass

    def request(self, tree, verify_seed: int) -> Request:
        import sdident

        text = to_text(tree)
        names = leaf_names(tree)
        builds_one_at_a_time = constructible(tree)

        def call():
            expr = sdident.parse(text)
            verdict = sdident.analyze(expr)
            return verdict, sdident.verify_local(expr, trials=3, seed=verify_seed)

        def check(out):
            verdict, agrees = out
            local = verdict.locally_identifiable
            want_global = (
                "unidentifiable" if not local
                else "global" if builds_one_at_a_time
                else "local-only"
            )
            return _expect([
                ("rank agrees with tables", agrees, True),
                ("parameters", verdict.param_count, len(names)),
                ("constructible", verdict.constructible, builds_one_at_a_time),
                ("global", verdict.global_status.value, want_global),
            ])

        return Request(f"verify {text}", structure_key(tree), call, check)

    def pass_requests(self):
        import sdident

        trees = [from_expr(sdident.random_network(i, self.elements)) for i in range(self.size)]
        return [self.request(named(shuffled(t, self.rng), self.rng), i) for i, t in enumerate(trees)]

    def warm_up(self):
        self.request(named(CLASSICS["BURGERS"]["tree"], random.Random(0)), 0).call()


def prony_tree(modes: int, rng: random.Random):
    """E0 | (E1 & n1) | ... | (Ek & nk), with random names.  The branch
    order stays fixed, so that every run derives the same equations the
    same way: the derivation folds branches left to right."""
    return named(_par(_S, *[_ser(_S, _D) for _ in range(modes)]), rng)


class PronyReport(Workload):
    """parse -> cli.build_report (what `analyze --json` computes) on
    generalized Maxwell banks of 4..8 modes, ten times over in a pass."""

    name = "prony_report"
    modes = (4, 5, 6, 7, 8)
    cycles = 10

    def request(self, modes: int, tree) -> Request:
        import sdident
        import sdident.cli

        text = to_text(tree)
        names = leaf_names(tree)

        def call():
            return sdident.cli.build_report(sdident.parse(text), text)

        def check(report):
            # the paper: type A, locally identifiable, local-only, and
            # 2k+1 parameters against 2k+1 non-monic coefficients
            return _expect([
                ("net_type", report["net_type"], "A"),
                ("shape_type", report["shape_type"], "A"),
                ("local", report["local"], "identifiable"),
                ("global", report["global"], "local-only"),
                ("param_count", report["param_count"], 2 * modes + 1),
                ("nonmonic_count", report["nonmonic_count"], 2 * modes + 1),
                ("parameters", sorted(report["parameters"]), sorted(names)),
                ("shapes", report["shapes"], {"eps": [modes, 0], "sigma": [modes, 0]}),
            ])

        return Request(f"build_report k={modes}", structure_key(tree), call, check)

    def pass_requests(self):
        return [self.request(k, prony_tree(k, self.rng)) for k in self.modes] * self.cycles

    def warm_up(self):
        self.request(2, prony_tree(2, random.Random(0))).call()


class FiberClassics(Workload):
    """fiber_solutions(multistarts=40) on five classic networks.

    Round i is every network at base point i.  Base points and multistart
    seeds depend on i alone, so every run does the same Newton work in the
    same order (a request's time depends on the requests run before it);
    the workload seed picks parameter names only.  No input repeats
    within a pass.  Forty starts, a fifth of the CLI default, keep the
    per-start work and a pass short enough to repeat often in a run.
    """

    name = "fiber_classics"
    rounds = 3
    networks = ("GEN_KELVIN_VOIGT", "BURGERS", "LADDER_8", "MAXWELL", "VOIGT")
    multistarts = 40
    probes = (0.37, 1.0, 2.9, complex(0.5, 1.3))

    def request(self, network: str, tree, index: int) -> Request:
        import sdident

        text = to_text(tree)
        names = leaf_names(tree)
        point_rng = random.Random(f"fiber-base-{network}-{index}")
        exact = tuple(Fraction(point_rng.randint(1, 10**6), 1000) for _ in names)
        base = [float(v) for v in exact]
        targets = [modulus(tree, dict(zip(names, base)), s) for s in self.probes]
        point = sdident.ParamPoint(exact)

        def call():
            return sdident.fiber_solutions(
                sdident.parse(text), base=point, multistarts=self.multistarts, seed=index
            )

        def same_modulus(values) -> bool:
            mapping = dict(zip(names, values))
            return all(
                abs(modulus(tree, mapping, s) - g) <= 1e-6 * abs(g)
                for s, g in zip(self.probes, targets)
            )

        def check(report):
            solutions = report.solutions
            if network == "GEN_KELVIN_VOIGT":
                if len(solutions) < 6:
                    return f"{len(solutions)} fiber solutions, expected at least 6"
            else:
                bad = _expect([
                    ("solution count", len(solutions), 1),
                    ("method", solutions[0].method if solutions else None, "base"),
                ])
                if bad:
                    return bad
            for sol in solutions:
                values = list(sol.values)
                if len(values) != len(names) or min(values) <= 0:
                    return f"{sol.method} solution is not a positive point: {values}"
                if not same_modulus(values):
                    return f"{sol.method} solution has another complex modulus: {values}"
            return None

        return Request(f"fiber {network} #{index}", structure_key(tree), call, check)

    def pass_requests(self):
        trees = {n: named(CLASSICS[n]["tree"], self.rng) for n in self.networks}
        return [self.request(n, trees[n], i) for i in range(self.rounds) for n in self.networks]

    def warm_up(self):
        import sdident

        sdident.fiber_solutions(sdident.parse("E1 | n1"), multistarts=self.multistarts)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of top-level `sdident` and `numpy` from
    `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in ("sdident", "numpy"):
            try:
                out[fields[2].strip()] = int(fields[1]) / 1e6
            except ValueError:
                continue
    return out


class CliSmall(Workload):
    """One `python -m sdident.cli` process per request: analyze --json,
    derive --json and verify on four small classics, plus tables."""

    name = "cli_small"
    networks = ("MAXWELL", "VOIGT", "BURGERS", "GEN_KELVIN_VOIGT")
    in_children = True

    def _run(self, args: list[str]) -> tuple[int, str]:
        if self.tracer is None:
            proc = subprocess.run(
                [sys.executable, "-m", "sdident.cli", *args],
                cwd=self.root, capture_output=True, text=True, timeout=60,
            )
            return proc.returncode, proc.stdout
        return self._run_traced(args)

    def _run_traced(self, args: list[str]) -> tuple[int, str]:
        """Run the CLI under the benchmark's tracer in the child; the child
        sends its layer totals back through a pipe."""
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        read_fd, write_fd = os.pipe()
        env = dict(os.environ, PERFBENCH_TRACE_FD=str(write_fd))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", child, *args],
                cwd=self.root, capture_output=True, text=True, timeout=60,
                env=env, pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        wall = time.perf_counter() - start
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        summary = json.loads(payload) if payload else {"stats": {}, "counters": {}, "top_s": 0.0}
        self.tracer.merge_child(summary, wall, parse_importtime(proc.stderr))
        return proc.returncode, proc.stdout

    def request(self, command: str, network: str | None, tree) -> Request:
        if command == "tables":
            args = ["tables"]
            key = "tables"
        else:
            text = to_text(tree)
            key = f"{command}:{structure_key(tree)}"
            if command == "verify":
                args = ["verify", text, "--seed", str(self.rng.randrange(10**6))]
            else:
                args = [command, text, "--json"]

        def call():
            return self._run(args)

        def check(out):  # a malformed output raises, which counts as a failure
            code, stdout = out
            if code != 0:
                return f"exit code {code}"
            if command == "tables":
                return self._check_tables(stdout)
            if command == "verify":
                return self._check_verify(network, stdout)
            if command == "analyze":
                return self._check_analyze(network, tree, json.loads(stdout))
            return self._check_derive(network, json.loads(stdout))

        return Request(f"cli {' '.join(args[:1])} {network or ''}", key, call, check)

    @staticmethod
    def _check_tables(stdout: str) -> "str | None":
        blocks = [b for b in stdout.strip().split("\n\n") if b.strip()]
        if len(blocks) != 2:
            return f"{len(blocks)} table blocks, expected 2"
        for block in blocks:
            lines = block.splitlines()
            title = next((t for t in TABLES if lines[0].startswith(t)), None)
            if title is None:
                return f"unknown table title {lines[0]!r}"
            rows = {}
            for line in lines[2:]:
                tokens = line.split()
                rows[tokens[0]] = " ".join(tokens[1:])
            if rows != TABLES[title]:
                return f"{title} table differs from the paper's: {rows}"
        return None

    @staticmethod
    def _check_verify(network: str, stdout: str) -> "str | None":
        want = CLASSICS[network]
        lines = stdout.splitlines()
        return _expect([
            ("symbolic line", lines[0], f"symbolic: identifiable (type {want['net_type']})"),
            ("oracle agrees", lines[1].split()[1], "agrees"),
        ])

    @staticmethod
    def _check_analyze(network: str, tree, report: dict) -> "str | None":
        want = CLASSICS[network]
        count = len(leaf_names(tree))
        return _expect([
            ("net_type", report["net_type"], want["net_type"]),
            ("shape_type", report["shape_type"], want["net_type"]),
            ("shapes", report["shapes"], {"eps": want["eps"], "sigma": want["sigma"]}),
            ("local", report["local"], "identifiable"),
            ("global", report["global"], want["glob"]),
            ("param_count", report["param_count"], count),
            ("nonmonic_count", report["nonmonic_count"], count),
            ("parameters", report["parameters"], leaf_names(tree)),
        ])

    @staticmethod
    def _check_derive(network: str, payload: dict) -> "str | None":
        want = CLASSICS[network]
        eq = payload["constitutive"]
        eps_high, eps_low = want["eps"]
        sig_high, sig_low = want["sigma"]
        count = len(leaf_names(want["tree"]))
        return _expect([
            ("strain orders", [t["order"] for t in eq["eps"]], list(range(eps_low, eps_high + 1))),
            ("stress orders", [t["order"] for t in eq["sigma"]], list(range(sig_low, sig_high + 1))),
            ("normalized coefficients", len(payload["normalized"]), count),
        ])

    def pass_requests(self):
        """The 13 requests in an order the seed shuffles."""
        trees = {n: named(CLASSICS[n]["tree"], self.rng) for n in self.networks}
        requests = [self.request("tables", None, None)]
        for network in self.networks:
            for command in ("analyze", "derive", "verify"):
                requests.append(self.request(command, network, trees[network]))
        self.rng.shuffle(requests)
        return requests

    def warm_up(self):
        self._run(["tables"])


def make(name: str, seed: int, root: str) -> Workload:
    classes = {c.name: c for c in (VerifySweep, PronyReport, FiberClassics, CliSmall)}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return classes[name](seed, root)
