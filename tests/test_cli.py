import collections
import copy
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import sdident
from sdident import (
    ParamPoly,
    analyze,
    constitutive,
    fiber_solutions,
    jacobian_rank,
    params,
    parse,
    random_network,
    render,
    sample_point,
    verify_local,
)
from sdident.cli import EXIT_BROKEN_PIPE, main

from helpers import (
    BRANCHED_10,
    BURGERS,
    GEN_KELVIN_VOIGT,
    LADDER_8,
    MAXWELL,
    all_networks,
    maxwell_bank,
    nested_chain,
    reference_equation_text,
    reference_normalized,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sdident.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_env() -> dict:
    """Environment for a fresh interpreter that imports sdident from the
    tested sources."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=python_env(), timeout=120
    )


def test_closed_reader_exits_quietly():
    # the reader goes away before any output, as `| head -1` can
    argv = [sys.executable, "-m", "sdident.cli", "analyze", MAXWELL, "--verify", "--json"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=python_env()
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize(
    "argv",
    [["analyze", MAXWELL, "--json"], ["derive", MAXWELL, "--json"], ["verify", MAXWELL]],
    ids=["analyze", "derive", "verify"],
)
def test_command_loads_no_dataclasses_or_fractions(argv):
    # importtime's last column names each module a process imported; a
    # certified verify builds no Fraction, and the records are slotted
    # classes.  Modules the bare interpreter loads (site hooks) are not
    # the command's.
    def imported(*args):
        proc = run_python("-X", "importtime", *args)
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}

    modules = imported("-m", "sdident.cli", *argv) - imported("-c", "pass")
    assert "sdident" in modules
    assert not modules & {"dataclasses", "inspect", "fractions", "decimal"}, modules


class TestAnalyze:
    def test_maxwell_human(self, capsys):
        code, out, _ = run(capsys, "analyze", MAXWELL)
        assert code == 0
        assert "type:       D" in out
        assert "global:     global" in out
        assert "series(A, B) = D" in out

    def test_branched_unidentifiable(self, capsys):
        code, out, _ = run(capsys, "analyze", BRANCHED_10)
        assert code == 0
        assert "type:       u" in out
        assert "unidentifiable" in out

    def test_gen_kelvin_voigt_local_only(self, capsys):
        code, out, _ = run(capsys, "analyze", GEN_KELVIN_VOIGT)
        assert code == 0
        assert "local-only" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", BURGERS, "--json")
        assert code == 0
        report = json.loads(out)
        expected_keys = {
            "expression",
            "canonical",
            "parameters",
            "net_type",
            "shape_type",
            "index",
            "shapes",
            "param_count",
            "nonmonic_count",
            "local",
            "constructible",
            "global",
            "trace",
            "constitutive",
            "oracle",
        }
        assert set(report) == expected_keys
        assert report["net_type"] == "D"
        assert report["index"] == 2
        assert report["param_count"] == 4
        assert report["global"] == "global"
        assert report["shapes"] == {"eps": [2, 1], "sigma": [2, 0]}
        # round trip through json is lossless
        assert json.loads(json.dumps(report)) == report

    def test_json_with_verify(self, capsys):
        code, out, _ = run(capsys, "analyze", MAXWELL, "--json", "--verify")
        assert code == 0
        report = json.loads(out)
        assert report["oracle"]["agrees"] is True
        assert report["oracle"]["jacobian_rank"] == 2

    def test_verify_ranks_each_trial_point_once(self, capsys, monkeypatch):
        # the trials draw integer points, so the spy sits on the rows
        # every rank comes from and reads each point back as Fractions;
        # the first point's rank is full, so it certifies and ends the check
        import sdident.oracle as oracle_mod

        original = oracle_mod._jacobian_rows
        points = []

        def counted(expr, point, scale):
            points.append([F(v, scale) for v in point])
            return original(expr, point, scale)

        monkeypatch.setattr(oracle_mod, "_jacobian_rows", counted)
        for text, trials in ((MAXWELL, 3), (BRANCHED_10, 2)):
            points.clear()
            code, out, _ = run(
                capsys, "analyze", text, "--verify", "--json", "--trials", str(trials), "--seed", "5"
            )
            assert code == 0
            n = len(params(parse(text)))
            assert points == [list(sample_point(n, 5).values)]
            oracle = json.loads(out)["oracle"]
            rank = jacobian_rank(parse(text), sample_point(n, seed=5))
            assert rank == analyze(parse(text)).nonmonic_count
            assert oracle == {
                "trials": trials,
                "seed": 5,
                "jacobian_rank": rank,
                "ranks": [rank],
                "certified": True,
                "agrees": True,
            }

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "E1 & & n1")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 1200 + "E1" + ")" * 1200,
            # 700 levels alternating series and parallel
            "".join(f"{'E' if k % 2 else 'n'}{k} {'&' if k % 2 else '|'} (" for k in range(700))
            + "E700"
            + ")" * 700,
            nested_chain(700),
        ],
        ids=["parens_1200", "alternating_700", "ladder_700"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        proc = run_python("-m", "sdident.cli", "analyze", text)
        assert proc.returncode == 2
        assert proc.stderr.startswith("parse error: parentheses nested deeper than")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["analyze", "--json"], ["derive"]])
    def test_term_budget_refuses_deep_ladder(self, argv):
        # nested_chain(100) parses, but its equation would have about 1e42
        # terms; the term budget stops it before any derivation starts
        start = time.perf_counter()
        proc = run_python("-m", "sdident.cli", *argv, nested_chain(100))
        assert time.perf_counter() - start < 20
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: the constitutive equation would have")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["analyze", "--json"], ["derive"]])
    def test_term_budget_admits_ladder_of_ten(self, argv):
        proc = run_python("-m", "sdident.cli", *argv, nested_chain(10))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestDerive:
    def test_voigt_equation_text(self, capsys):
        code, out, _ = run(capsys, "derive", "E1 | n1")
        assert code == 0
        assert "n1·ε̇ + E1·ε = σ" in out

    def test_maxwell_normalized(self, capsys):
        code, out, _ = run(capsys, "derive", MAXWELL, "--json")
        payload = json.loads(out)
        assert code == 0
        values = {(i["side"], i["order"]): i["value"] for i in payload["normalized"]}
        assert values[("eps", 1)] == "E1"
        assert values[("sigma", 0)] == "(E1) / (n1)"

    def test_non_monomial_pivot_divides(self, capsys):
        # pivot n2 + n3; the strain coefficient E1*n2 + E1*n3 divides by it
        code, out, _ = run(capsys, "derive", "E1 & (n2 | n3)", "--json")
        payload = json.loads(out)
        assert code == 0
        sigma = {i["order"]: i["poly"] for i in payload["constitutive"]["sigma"]}
        assert sigma[1] == "n2 + n3"
        values = {(i["side"], i["order"]): i["value"] for i in payload["normalized"]}
        assert values == {("eps", 1): "E1", ("sigma", 0): "(E1) / (n2 + n3)"}

    def test_burgers_coefficients(self, capsys):
        code, out, _ = run(capsys, "derive", BURGERS, "--json")
        payload = json.loads(out)
        sigma = {i["order"]: i["poly"] for i in payload["constitutive"]["sigma"]}
        assert sigma[2] == "nv*nm"
        assert sigma[0] == "Ev*Em"

    @pytest.mark.parametrize(
        "text", ["(E1 | n1) & E2 & n2", maxwell_bank(3)], ids=["four-element", "bank-3"]
    )
    def test_renders_each_coefficient_once(self, capsys, monkeypatch, text):
        # the equation line and the normal form read equation_to_json's
        # texts; only an exact quotient is rendered anew
        calls = []
        to_string = ParamPoly.to_string
        monkeypatch.setattr(
            ParamPoly, "to_string", lambda poly, names: calls.append(1) or to_string(poly, names)
        )
        code, out, _ = run(capsys, "derive", text, "--json")
        assert code == 0
        eq = constitutive(parse(text))
        quotients = [i for i in json.loads(out)["normalized"] if " / " not in i["value"]]
        assert len(calls) == len(eq.eps.coeffs) + len(eq.sig.coeffs) + len(quotients)

    def test_output_matches_the_reference_renderers(self, capsys):
        # every network of up to four elements, banks of 1-6 modes and
        # chains of depth 1-8, in text and --json
        texts = [render(expr) for expr in all_networks(4)]
        texts += [maxwell_bank(m) for m in range(1, 7)] + [nested_chain(d) for d in range(1, 9)]
        for text in texts:
            expr = parse(text)
            eq = constitutive(expr)
            equation = reference_equation_text(eq, params(expr))
            normalized = reference_normalized(eq, params(expr))
            code, out, _ = run(capsys, "derive", text, "--json")
            payload = json.loads(out)
            assert (code, payload["equation"], payload["normalized"]) == (0, equation, normalized)
            lines = [f"  {i['side']}[{i['order']}] = {i['value']}" for i in normalized]
            header = "normalized coefficients (pivot: leading sigma coefficient):"
            assert run(capsys, "derive", text)[:2] == (0, "\n".join([equation, header, *lines, ""]))


class TestTables:
    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "Parallel connection (|)" in out
        assert "Series connection (&)" in out
        assert out.count("u") > 20  # absorbing row and column present


class TestFiber:
    def test_spring(self, capsys):
        code, out, _ = run(capsys, "fiber", "E1")
        assert code == 0
        assert "solutions found: 1" in out

    def test_gen_kelvin_voigt_json(self, capsys):
        code, out, _ = run(capsys, "fiber", GEN_KELVIN_VOIGT, "--json", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == payload["degree"] == 6
        methods = {s["method"] for s in payload["solutions"]}
        assert "root-exchange" in methods
        assert set(payload) == {
            "expression", "base", "solutions", "count", "degree", "truncated", "dropped",
        }

    def test_reports_degree(self, capsys):
        code, out, _ = run(capsys, "fiber", MAXWELL)
        assert code == 0
        assert "fiber degree: 1\nsolutions found: 1\n" in out
        code, out, _ = run(capsys, "fiber", maxwell_bank(5), "--json")
        payload = json.loads(out)
        assert (payload["degree"], payload["count"], payload["truncated"]) == (120, 64, True)

    def test_reports_dropped(self, capsys):
        code, out, _ = run(capsys, "fiber", LADDER_8)
        assert code == 0
        assert "dropped: split-pair 0, singular 0, non-positive 0, failed-check 0\n" in out
        code, out, _ = run(capsys, "fiber", LADDER_8, "--seed", "1", "--json")
        assert json.loads(out)["dropped"] == {
            "split-pair": 0, "singular": 0, "non-positive": 0, "failed-check": 0,
        }

    def test_unidentifiable_refused(self, capsys):
        code, _, err = run(capsys, "fiber", BRANCHED_10)
        assert code == 1
        assert err == "error: fiber enumeration requires a locally identifiable network\n"

    def test_fourteen_mode_bank_reports(self, capsys):
        # the Newton search refused it: its batch would have held 8.8e8 floats
        code, out, err = run(capsys, "fiber", maxwell_bank(14), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["degree"] == math.factorial(14)
        assert payload["count"] == 64 and payload["truncated"]


class TestGen:
    def test_negative_count_refused(self, capsys):
        code, out, err = run(capsys, "gen", "--elements", "3", "--count", "-2", "--json")
        assert code == 1
        assert out == ""
        assert err == "error: count must be non-negative, got -2\n"

    def test_deterministic(self, capsys):
        code, first, _ = run(capsys, "gen", "--elements", "4", "--count", "3", "--seed", "7")
        assert code == 0
        code, second, _ = run(capsys, "gen", "--elements", "4", "--count", "3", "--seed", "7")
        assert first == second

    def test_single_element(self, capsys):
        code, out, _ = run(capsys, "gen", "--elements", "1", "--count", "5", "--json")
        payload = json.loads(out)
        assert code == 0
        assert all(item["expression"] in ("E1", "n1") for item in payload)

    def test_emitted_verdicts_consistent(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--elements", "5", "--count", "8", "--seed", "3", "--json"
        )
        payload = json.loads(out)
        for item in payload:
            local_id = item["local"] == "identifiable"
            if item["global"] == "global":
                assert local_id
            if item["net_type"] == "u":
                assert not local_id and item["global"] == "unidentifiable"


class TestVerify:
    def test_maxwell(self, capsys):
        code, out, _ = run(capsys, "verify", MAXWELL)
        assert code == 0
        assert "agrees" in out

    def test_branched(self, capsys):
        code, out, _ = run(capsys, "verify", BRANCHED_10, "--trials", "2")
        assert code == 0
        assert "unidentifiable" in out

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # the symbolic verdict and the oracle never actually disagree, so
        # force a disagreement to pin the exit-code contract
        import sdident.oracle as oracle_mod

        # both commands read the per-trial ranks, which the CLI looks up
        # in the oracle when it runs; Maxwell has 2 parameters, and no
        # trial reaches rank 2
        monkeypatch.setattr(oracle_mod, "local_ranks", lambda *a, **k: ([1, 1, 1], False))
        code, _, _ = run(capsys, "verify", MAXWELL)
        assert code == 3
        code, _, err = run(capsys, "analyze", MAXWELL, "--verify")
        assert code == 3
        assert "disagrees" in err

    def test_table_type_must_be_the_shape_class(self, capsys, monkeypatch):
        # Maxwell's table type and shape class are both D; force a C
        import sdident.ident as ident_mod

        monkeypatch.setattr(ident_mod, "classify", lambda eq: (ident_mod.NetType.C, 1))
        with pytest.raises(sdident.InvariantViolation, match="disagrees with shape class C"):
            analyze(parse(MAXWELL))
        code, _, err = run(capsys, "analyze", MAXWELL)
        assert code == 3
        assert "internal inconsistency" in err

    def test_rank_below_nonmonic_count_disagrees(self, capsys, monkeypatch):
        # unidentifiable with 4 parameters and 2 non-monic coefficients:
        # rank 1 is short of full rank but is not the coefficient count
        import sdident.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "local_ranks", lambda *a, **k: ([1, 1, 1], False))
        code, out, _ = run(capsys, "verify", "(E1 & n1) & (E2 & n2)")
        assert code == 3
        assert out.splitlines()[1] == "oracle:   DISAGREES: largest rank 1 over 3 trials"
        code, out, err = run(capsys, "analyze", "(E1 & n1) & (E2 & n2)", "--verify", "--json")
        assert code == 3
        oracle = json.loads(out)["oracle"]
        assert oracle["agrees"] is False
        assert (oracle["jacobian_rank"], oracle["ranks"], oracle["certified"]) == (1, [1, 1, 1], False)

    def test_certified_is_the_oracle_flag(self, capsys, monkeypatch):
        # certified is the oracle's own verdict on its last trial, agrees
        # the comparison with analyze's count: with that count one below
        # Maxwell's 2 rows, trial 1's rank of 2 certifies but disagrees
        import sdident.cli as cli_mod
        import sdident.oracle as oracle_mod

        def lowered(expr):
            verdict = copy.copy(analyze(expr))
            verdict.nonmonic_count -= 1
            return verdict

        monkeypatch.setattr(cli_mod, "analyze", lowered)
        code, out, err = run(capsys, "analyze", MAXWELL, "--verify", "--json")
        assert code == 3
        assert "disagrees" in err
        oracle = json.loads(out)["oracle"]
        assert (oracle["ranks"], oracle["certified"], oracle["agrees"]) == ([2], True, False)
        code, out, _ = run(capsys, "verify", MAXWELL)
        assert code == 3
        assert out.splitlines()[1] == "oracle:   DISAGREES: largest rank 2 over 3 trials"
        # every trial short of its 2 rows: rank 1 agrees with the lowered
        # count, and the text does not call it certified
        ranks = iter([1, 1, 1])
        monkeypatch.setattr(oracle_mod, "exact_rank", lambda rows: next(ranks))
        code, out, _ = run(capsys, "verify", MAXWELL)
        assert code == 0
        assert out.splitlines()[1] == "oracle:   agrees at trial 3 of 3"

    def test_degenerate_first_point_draws_the_next(self, capsys, monkeypatch, folds):
        # a short rank may be a degenerate point: the next trial is drawn,
        # and the first full rank (Maxwell has 2 rows) certifies
        import sdident.oracle as oracle_mod

        original = oracle_mod._jacobian_rows
        points = []

        def spied(expr, point, scale):
            points.append([F(v, scale) for v in point])
            return original(expr, point, scale)

        monkeypatch.setattr(oracle_mod, "_jacobian_rows", spied)

        def patch_ranks(*values):
            values = iter(values)
            monkeypatch.setattr(oracle_mod, "exact_rank", lambda rows: next(values))
            folds.clear()
            points.clear()

        expr, key = parse(MAXWELL), render(parse(MAXWELL))
        patch_ranks(1, 2)
        assert verify_local(expr, seed=7) is True
        assert folds == {("_Dual", key): 2}
        assert points == [list(sample_point(2, 7 + 1000 * t).values) for t in range(2)]
        patch_ranks(1, 2)
        code, out, _ = run(capsys, "verify", MAXWELL)
        assert code == 0
        assert out.splitlines()[1] == "oracle:   agrees at trial 2 of 3 (certified)"
        patch_ranks(1, 2)
        code, out, _ = run(capsys, "analyze", MAXWELL, "--verify", "--json")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert (oracle["jacobian_rank"], oracle["ranks"], oracle["certified"]) == (2, [1, 2], True)
        patch_ranks(1, 1, 1)
        assert verify_local(expr, seed=7) is False
        assert folds == {("_Dual", key): 3}
        assert points == [list(sample_point(2, 7 + 1000 * t).values) for t in range(3)]
        patch_ranks(1, 1, 1)
        code, out, _ = run(capsys, "verify", MAXWELL)
        assert code == 3
        assert out.splitlines()[1] == "oracle:   DISAGREES: largest rank 1 over 3 trials"

    def test_analyzes_once(self, capsys, monkeypatch):
        import sdident.cli as cli_mod
        import sdident.oracle as oracle_mod

        original = cli_mod.analyze
        calls = []

        def counted(expr):
            calls.append(expr)
            return original(expr)

        # the rank oracle does not call analyze, so the CLI's is every call
        assert not hasattr(oracle_mod, "analyze")
        monkeypatch.setattr(cli_mod, "analyze", counted)
        code, out, _ = run(capsys, "verify", BURGERS)
        assert code == 0
        assert out == "symbolic: identifiable (type D)\noracle:   agrees at trial 1 of 3 (certified)\n"
        assert len(calls) == 1


@pytest.fixture
def folds(monkeypatch):
    """Counts ``fold_constitutive`` calls by (ring, rendered network),
    through every module binding of the fold."""
    from sdident import fiber, ident, opalg, oracle

    counts = collections.Counter()
    original = opalg.fold_constitutive

    def counted(expr, values, one):
        counts[type(one).__name__, render(expr)] += 1
        return original(expr, values, one)

    for module in (opalg, ident, oracle, fiber):
        monkeypatch.setattr(module, "fold_constitutive", counted)
    return counts


class TestOnePassPerRequest:
    """The theta = 1 pass of ``analyze`` also serves the term budget, so a
    request folds each network at most once per exact ring."""

    def test_analyze_json(self, capsys, folds):
        bank = maxwell_bank(3)
        assert run(capsys, "analyze", bank, "--json")[0] == 0
        key = render(parse(bank))
        assert folds == {("int", key): 1, ("ParamPoly", key): 1}

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", BURGERS],
            ["analyze", BURGERS, "--json", "--verify"],
            ["analyze", BRANCHED_10, "--verify"],
            ["derive", GEN_KELVIN_VOIGT, "--json"],
            ["verify", BURGERS],
            ["gen", "--elements", "9", "--count", "4", "--seed", "3"],
            ["fiber", GEN_KELVIN_VOIGT, "--json"],
        ],
    )
    def test_every_command(self, capsys, folds, argv):
        assert run(capsys, *argv)[0] == 0
        exact = [n for (ring, _), n in folds.items() if ring in ("int", "ParamPoly")]
        assert exact and max(exact) == 1

    @pytest.mark.parametrize(
        "text",
        [BURGERS, GEN_KELVIN_VOIGT, render(random_network(3, 11))],
        ids=["burgers", "gen_kelvin_voigt", "random11"],
    )
    def test_verify_local_folds_once_per_trial(self, folds, text):
        # verify_local reads the coefficient count off its trials' own
        # Jacobians: analyze's integer fold is the only one at theta = 1,
        # and the first trial's full rank certifies, so it is the only trial
        expr = parse(text)
        analyze(expr)
        assert verify_local(expr, trials=3) is True
        key = render(expr)
        assert folds == {("int", key): 1, ("_Dual", key): 1}

    def test_fiber_folds_the_tree_once_at_theta_one(self, folds):
        # analyze's integer pass, and no symbolic derivation of any subtree
        expr = parse(GEN_KELVIN_VOIGT)
        fiber_solutions(expr)
        assert folds["int", render(expr)] == 1
        assert not [key for key in folds if key[0] == "ParamPoly"]


# Runs in a fresh interpreter: prints, per step, the argv, its exit code
# and which of the rank oracle, the fiber search and numpy are loaded
# after it.
IMPORT_PROBE = """
import contextlib, io, json, sys
import sdident, sdident.cli
def loaded():
    return [name in sys.modules for name in ("sdident.oracle", "sdident.fiber", "numpy")]
steps = [[[], 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sdident.cli.main(argv)
    steps.append([argv, code, loaded()])
print(json.dumps(steps))
"""


def test_only_fiber_loads_numpy():
    # the commands that load nothing run first, so each step's modules
    # are the ones that command loaded
    symbolic = [
        ["tables"],
        ["derive", BURGERS, "--json"],
        ["analyze", BURGERS, "--json"],
        ["gen", "--elements", "6", "--count", "3"],
    ]
    rank = [
        ["verify", BURGERS],
        ["analyze", BURGERS, "--verify", "--json"],
    ]
    fiber = ["fiber", BURGERS, "--json"]
    proc = run_python("-c", IMPORT_PROBE, json.dumps(symbolic + rank + [fiber]))
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    # importing sdident and sdident.cli, then each command
    assert steps == (
        [[[], 0, [False, False, False]]]
        + [[argv, 0, [False, False, False]] for argv in symbolic]
        + [[argv, 0, [True, False, False]] for argv in rank]
        + [[fiber, 0, [True, True, True]]]
    )
