import json
import math
import re

import mpmath
import numpy as np
import pytest

from gosextreme.cli import Table, emit, example_names, main, parse_grid
from gosextreme.distributions import parse_model
from gosextreme.goscore import (
    joint_df,
    marginal_lower_df,
    marginal_upper_df,
)
from gosextreme.limitlaws import TailTransform, kappa, rho
from gosextreme.params import ExtremeSide, GosParams, RankPair, Regime, UsageError, parse_number
from gosextreme.randomindex import IndexLaw, realizing_mode as _mode_for_law

parse_law, parse_transform = IndexLaw.parse, TailTransform.parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_symbolic_numbers(self):
        assert parse_number("ln4") == pytest.approx(math.log(4.0))
        assert parse_number("-ln2") == pytest.approx(-math.log(2.0))
        assert parse_number("pi") == pytest.approx(math.pi)
        assert parse_number("inf") == math.inf
        assert parse_number("-1.5e3") == -1500.0

    def test_bad_number(self):
        with pytest.raises(Exception, match="symbolic"):
            parse_number("ln3")

    def test_grid_forms(self):
        assert parse_grid("1") == [1.0]
        assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        assert len(parse_grid("0:1")) == 41
        assert parse_grid("-ln4:ln4:3")[1] == pytest.approx(0.0)

    def test_bad_grid(self):
        with pytest.raises(Exception):
            parse_grid("1:2:3:4")
        with pytest.raises(Exception):
            parse_grid("1:2:0")
        for spec in ("0:1:abc", "0:1:2.5", "0:1:"):
            with pytest.raises(UsageError, match="not an integer"):
                parse_grid(spec)

    def test_infinite_grid_endpoint(self):
        for spec in ("0:inf:2", "-inf:1", "-inf:inf:5"):
            with pytest.raises(UsageError, match="infinite"):
                parse_grid(spec)
        assert parse_grid("inf") == [math.inf]
        assert parse_grid("-inf:0:1") == [-math.inf]

    def test_transforms(self):
        tr = parse_transform("frechet:2", ExtremeSide.UPPER)
        assert (tr.kind, tr.alpha) == ("frechet", 2.0)
        assert parse_transform("gumbel", ExtremeSide.LOWER).kind == "gumbel"
        with pytest.raises(Exception):
            parse_transform("gumbel:1", ExtremeSide.UPPER)
        with pytest.raises(Exception):
            parse_transform("frechet", ExtremeSide.UPPER)

    def test_law(self):
        assert parse_law("exponential").kind == "unit_exponential"
        assert parse_law("degenerate:2").c == 2.0
        with pytest.raises(Exception):
            parse_law("degenerate")

    @pytest.mark.parametrize("c", [1.0000001, 0.1234567])
    def test_law_label_parses_back_to_the_law(self, c):
        law = IndexLaw.degenerate(c)
        assert parse_law(law.label()) == law

    @pytest.mark.parametrize("law", [
        IndexLaw.degenerate(1.0),
        IndexLaw.degenerate(1.0000001),
        IndexLaw.degenerate(0.1234567),
        IndexLaw.unit_exponential(),
        IndexLaw.tabulated([(0.1234567, 0.0), (1.0000001, 1.0)]),
    ], ids=lambda law: law.label())
    def test_simulated_mode_realizes_the_law(self, law):
        assert _mode_for_law(law).implied_law() == law


class TestEmit:
    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table(columns=["x"], data=[[]], config={})
        with pytest.raises(ValueError):
            Table(columns=["x", "y"], data=[[1.0], [1.0, 2.0]], config={})

    def test_csv_roundtrip_15_digits(self):
        rows = [[1.0 / 3.0, math.pi], [2.0 / 7.0, math.e]]
        text = emit(Table(columns=["a", "b"], data=[list(c) for c in zip(*rows)],
                          config={"verb": "t"}), "csv")
        lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "a,b"
        parsed = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        for got, want in zip(parsed, rows):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-14, abs=0.0)

    def test_edge_values_keep_their_bytes(self):
        # the CSV body is one %-format per table; it must print each value as
        # a per-value f"{v:.15g}" does, in CSV, and JSON must be unaffected
        edge = [-0.0, 0.0, math.inf, -math.inf, 5e-324, 1.0 / 3.0, -2.5e300, 1e16,
                np.float64(0.1), np.float64(-0.0), 7]
        rows = [[edge[(i + j) % len(edge)] for j in range(3)] for i in range(1681)]
        table = Table(columns=["x", "y", "value"], data=[list(c) for c in zip(*rows)],
                      config={"verb": "t"})
        want = "# verb=t\nx,y,value\n" + "".join(
            ",".join(f"{v:.15g}" for v in row) + "\n" for row in rows)
        assert emit(table, "csv") == want
        plain = [[v if isinstance(v, int) else float(v) for v in row] for row in rows]
        assert emit(table, "json") == json.dumps(
            {"config": {"verb": "t"}, "columns": ["x", "y", "value"], "rows": plain},
            sort_keys=True, indent=2)

    def test_grid_values_keep_their_bytes(self):
        # an xy table formats each grid value once; every row must still read
        # as a per-value f"{v:.15g}" of its x, y and value
        xs = [-0.0, math.inf, 1e-300, 0.1 + 0.2]
        ys = [-math.inf, 0.0, 0.1 + 0.2, -0.0, 1e-300]
        values = [[-0.0], [math.inf], [1e-300], [0.1 + 0.2], [-math.inf]] * 4
        table = Table(columns=["x", "y", "value"], data=[[v for v, in values]],
                      config={"verb": "t"}, grid=(xs, ys))
        points = [[x, y, *v] for (x, y), v in zip([(x, y) for x in xs for y in ys], values)]
        want = "# verb=t\nx,y,value\n" + "".join(
            ",".join(f"{v:.15g}" for v in row) + "\n" for row in points)
        assert emit(table, "csv") == want
        assert emit(table, "json") == json.dumps(
            {"config": {"verb": "t"}, "columns": ["x", "y", "value"], "rows": points},
            sort_keys=True, indent=2)
        with pytest.raises(ValueError):
            Table(columns=["x", "y", "value"], data=[[v for v, in values[1:]]], config={},
                  grid=(xs, ys))

    def test_json_structure_sorted(self):
        text = emit(Table(columns=["x"], data=[[1.0]], config={"b": 1, "a": 2}), "json")
        payload = json.loads(text)
        assert payload["columns"] == ["x"]
        assert payload["rows"] == [[1.0]]
        keys = list(payload["config"])
        assert keys == sorted(keys)


class TestVerbs:
    def test_example_normal_range_at_ln4(self, capsys):
        code, out, _ = run_cli(capsys, "example", "normal-range", "--at", "ln4")
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_example_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "example", "normal-quotient")
        assert code == 1
        assert "available" in err

    def test_example_names_cover_families(self):
        names = example_names()
        assert "normal-range" in names and "cauchy-midrange" in names

    def test_example_with_overlay(self, capsys):
        code, out, _ = run_cli(
            capsys, "example", "pareto-range", "--grid", "0.5:4:5",
            "--sim-n", "200", "--sim-reps", "2000", "--sim-seed", "7",
        )
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,analytic,empirical,stderr"
        assert len(lines) == 6

    def test_example_overlay_takes_the_limit_once(self, capsys, monkeypatch):
        from gosextreme import ranges

        sizes = []
        limit_df = ranges._limit_df

        def counted(query, t):
            sizes.append(np.size(t))
            return limit_df(query, t)

        monkeypatch.setattr(ranges, "_limit_df", counted)
        code, _, _ = run_cli(
            capsys, "example", "logistic-midrange", "--grid=-2:2:5",
            "--sim-n", "50", "--sim-reps", "20", "--sim-seed", "3",
        )
        assert code == 0
        assert sizes == [5]

    def test_mix_degenerate_equals_limit(self, capsys):
        common = [
            "--regime", "uu", "--m", "0.5", "--k", "1", "--r", "2", "--s", "1",
            "--upper-tail", "frechet:1", "--x-grid", "0.5:4:4", "--y-grid", "0.5:4:4",
        ]
        code1, out1, _ = run_cli(capsys, "limit", *common)
        code2, out2, _ = run_cli(capsys, "mix", *common, "--H", "degenerate:1")
        assert code1 == 0 and code2 == 0
        vals1 = [ln.split(",")[2] for ln in out1.splitlines() if not ln.startswith("#")][1:]
        vals2 = [ln.split(",")[2] for ln in out2.splitlines() if not ln.startswith("#")][1:]
        for a, b in zip(vals1, vals2):
            assert float(a) == pytest.approx(float(b), abs=1e-10)

    def test_exact_marginal_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--dist", "uniform(theta=1)", "--m", "0", "--k", "1",
            "--n", "5", "--marginal", "upper", "--rank", "1", "--grid", "0.9",
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(0.95**5, abs=1e-9)

    def test_exact_joint_uu(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--dist", "power(alpha=1)", "--n", "5",
            "--regime", "uu", "--r", "2", "--s", "1",
            "--x-grid", "0.7", "--y-grid", "0.9",
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(0.7**5 + 5 * 0.7**4 * 0.2, abs=1e-9)

    def test_simulate_byte_identical_reruns(self, capsys):
        argv = [
            "simulate", "--dist", "cauchy", "--m", "0.5", "--k", "1", "--n", "60",
            "--regime", "lu", "--r", "1", "--s", "1", "--index", "geometric",
            "--reps", "500", "--seed", "42", "--x-grid", "inf", "--y-grid", "0.5:4:5",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["config"]["seed"] == 42
        assert len(payload["empirical"]) == 5

    def test_simulate_interleaved_seeds_byte_identical(self, tmp_path):
        """Seed A, seed B, then seed A again in one process: no random state
        may outlive a call, so the two A artifacts are the same bytes."""
        def simulate(seed, name):
            out = tmp_path / name
            code = main([
                "simulate", "--dist", "logistic", "--m", "0", "--k", "1", "--n", "300",
                "--regime", "uu", "--r", "2", "--s", "1", "--index", "dependent:uniform:0.5:1.5",
                "--reps", "300", "--seed", str(seed), "--x-grid=-1:3:4", "--y-grid=-1:3:4",
                "--out", str(out),
            ])
            assert code == 0
            return out.read_bytes()

        first, other, again = simulate(11, "a.json"), simulate(12, "b.json"), simulate(11, "c.json")
        assert first == again
        assert first != other

    def test_invalid_distribution_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--dist", "gamma(a=1)", "--n", "5",
            "--marginal", "upper", "--grid", "0.5",
        )
        assert code == 2
        assert "valid families" in err

    def test_unknown_verb_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--dist", "cauchy", "--n", "5")
        assert code == 1  # neither --marginal nor --regime

    def test_example_overlay_keeps_every_digit_of_the_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "example", "pareto-range", "--at", "1", "--law", "degenerate:1.0000001",
            "--sim-n", "50", "--sim-reps", "10",
        )
        assert code == 0
        assert "# law=degenerate:1.0000001\n" in out
        assert "# sim_index_mode=dependent:const:1.0000001\n" in out

    def test_example_overlay_without_a_sampler_exits_1(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("z,H\n0.5,0\n1,0.5\n1.5,1\n")
        code, _, err = run_cli(
            capsys, "example", "pareto-range", "--at", "1", "--law", f"table:{path}",
            "--sim-reps", "10",
        )
        assert code == 1
        assert "no built-in sampler" in err

    def test_tabulated_law_file(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("z,H\n0.5,0\n1.5,1\n")
        code, out, _ = run_cli(
            capsys, "mix", "--regime", "uu", "--r", "2", "--s", "1",
            "--upper-tail", "gumbel", "--x-grid", "0", "--y-grid", "0",
            "--H", f"table:{path}",
        )
        assert code == 0
        assert "tabulated" in out

    @pytest.mark.parametrize("body,message", [
        ("z,H\n0.5,0\n1.0\n", "h.csv: row .* two columns"),
        ("z,H\n0.5,0\nnan,1\n", "node .* not finite"),
        ("z,H\n0.5,0\ninf,1\n", "node .* not finite"),
    ], ids=["short-row", "nan-z", "inf-z"])
    def test_bad_tabulated_law_file_exits_2(self, capsys, tmp_path, body, message):
        path = tmp_path / "h.csv"
        path.write_text(body)
        code, _, err = run_cli(
            capsys, "mix", "--regime", "uu", "--r", "2", "--s", "1",
            "--upper-tail", "gumbel", "--x-grid", "0", "--y-grid", "0",
            "--H", f"table:{path}",
        )
        assert code == 2
        assert re.search(f"validation failure: .*{message}", err)

    def test_infinite_grid_endpoint_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dist", "logistic", "--n", "40", "--regime", "uu",
            "--r", "2", "--s", "1", "--x-grid=-1:1:3", "--y-grid", "0:inf:2",
        )
        assert code == 1
        assert "'0:inf:2'" in err

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GOSEXTREME_OUTDIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "example", "normal-midrange", "--at", "0", "--out", "mid.csv",
        )
        assert code == 0
        text = (tmp_path / "mid.csv").read_text()
        value = float(text.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_config_echo_includes_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "example", "cauchy-range", "--at", "1", "--m", "1")
        assert code == 0
        assert "# law=unit_exponential" in out
        assert "# k=1.0" in out
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


class TestSelftestVerb:
    def test_fast_tier_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--fast")
        assert code == 0
        assert "0 failed" in out
        assert out.count("PASS") >= 10

    def test_failure_exits_2(self, capsys, monkeypatch):
        from gosextreme import reference

        broken = list(reference._REGISTRY) + [
            ("forced-failure", False, lambda: (False, "injected"))
        ]
        monkeypatch.setattr(reference, "_REGISTRY", broken)
        code, out, _ = run_cli(capsys, "selftest", "--fast")
        assert code == 2
        assert "FAIL forced-failure" in out


class TestSpecAliases:
    def test_model_flag_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "cauchy", "--m", "0.5", "--k", "1",
            "--n", "50", "--regime", "lu", "--r", "1", "--s", "1",
            "--index", "geometric", "--reps", "200", "--seed", "42",
            "--x-grid", "inf", "--y-grid", "1",
        )
        assert code == 0
        assert '"seed": 42' in out

    def test_geometric_mean_n_alias(self):
        from gosextreme.montecarlo import IndexMode

        assert IndexMode.parse("geometric_mean_n").kind == "geometric"


_SIMULATE = ["simulate", "--dist", "logistic", "--n", "20", "--regime", "uu", "--r", "2",
             "--s", "1", "--reps", "5", "--x-grid", "0"]


class TestSpellings:
    """--H, --law, --index and the tails are read by one spec reader, and
    every number in them and in --dist by `parse_number`."""

    @pytest.mark.parametrize("spec", ["bogus", "fixed:3", "dependent", "dependent:bogus:1",
                                      "dependent:uniform:0.5", "GEOMETRIC:2"])
    def test_malformed_index_is_a_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, *_SIMULATE, "--index", spec)
        assert (code, out) == (1, "")
        assert err == (f"error: cannot parse index mode {spec!r}; expected fixed | geometric | "
                       "dependent:const:<c> | dependent:uniform:<a>:<b>\n")

    @pytest.mark.parametrize("spec", ["dependent:const:abc", "dependent:uniform:0.5:1:2"])
    def test_index_non_number_is_a_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, *_SIMULATE, "--index", spec)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot parse number ")

    def test_index_value_the_record_refuses_keeps_its_exit(self, capsys):
        code, _, err = run_cli(capsys, *_SIMULATE, "--index", "dependent:uniform:1.5:0.5")
        assert (code, err) == (2, "validation failure: dependent uniform T-spec needs 0 < a < b\n")

    @pytest.mark.parametrize("spec,label", [
        ("dependent:const:pi", f"dependent:const:{math.pi!r}"),
        ("Dependent:Uniform:ln2:E", f"dependent:uniform:{math.log(2.0)!r}:{math.e!r}"),
    ])
    def test_index_takes_symbolic_constants(self, capsys, spec, label):
        code, out, _ = run_cli(capsys, *_SIMULATE, "--index", spec)
        assert code == 0
        assert json.loads(out)["config"]["index_mode"] == label

    def test_dist_takes_symbolic_constants(self, capsys):
        code, out, _ = run_cli(capsys, *_SIMULATE[:2], "pareto(sigma=pi)", *_SIMULATE[3:])
        assert code == 0
        assert json.loads(out)["config"]["model"] == f"pareto(sigma={math.pi!r})"
        assert parse_model("beta(alpha=LN4, beta= e)").params == {"alpha": math.log(4.0),
                                                                   "beta": math.e}

    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_dist_non_number_keeps_its_exit(self, capsys, value):
        code, _, err = run_cli(capsys, *_SIMULATE[:2], f"pareto(sigma={value})", *_SIMULATE[3:])
        assert (code, err) == (2, f"validation failure: bad numeric value in 'sigma={value}'\n")

    @pytest.mark.parametrize("flag,spec,message", [
        ("--H", "degenerate", "index law 'degenerate'"),
        ("--H", "exponential:1", "index law 'exponential:1'"),
        ("--upper-tail", "gumbel:1", "tail transform 'gumbel:1'"),
        ("--upper-tail", "frechet", "tail transform 'frechet'"),
    ])
    def test_malformed_law_and_tail_are_usage_errors(self, capsys, flag, spec, message):
        argv = ["mix", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "frechet:1",
                "--H", "exponential", "--x-grid", "1", "--y-grid", "2", flag, spec]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot parse {message}; expected ")

    def test_table_path_keeps_its_colons_and_case(self, tmp_path):
        folder = tmp_path / "Laws:A"
        folder.mkdir()
        (folder / "H.csv").write_text("z,H\n0.5,0\n1.5,1\n")
        assert parse_law(f"TABLE:{folder / 'H.csv'}") == IndexLaw.tabulated(
            [(0.5, 0.0), (1.5, 1.0)])

    @pytest.mark.parametrize("verb,kinds", [
        ("mix", ["law", "tail"]), ("example", ["law"]), ("simulate", ["mode"]),
        ("limit", ["tail"]),
    ])
    def test_help_names_the_first_spelling_of_every_kind(self, capsys, verb, kinds):
        from gosextreme.randomindex import IndexMode

        records = {"law": IndexLaw.spellings(), "mode": IndexMode.spellings(),
                   "tail": TailTransform.spellings()}
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        out = capsys.readouterr().out
        for kind in kinds:
            for spellings in records[kind].values():
                assert spellings[0] in out, (verb, spellings[0])


class TestExactLowerLower:
    def test_joint_ll_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--dist", "power(alpha=1)", "--n", "5",
            "--regime", "ll", "--r", "1", "--s", "2",
            "--x-grid", "0.2", "--y-grid", "0.5",
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        from gosextreme import reference
        from gosextreme.distributions import parse_model as _pm
        from gosextreme.params import GosParams as _GP
        want = reference.joint_df_direct(_GP(m=0.0, k=1.0, n=5), _pm("power(alpha=1)"), 1, 2, 0.2, 0.5)
        assert value == pytest.approx(want, abs=1e-9)

    def test_ll_bad_ranks_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--dist", "power(alpha=1)", "--n", "5",
            "--regime", "ll", "--r", "3", "--s", "2",
            "--x-grid", "0.2", "--y-grid", "0.5",
        )
        assert code == 2


class TestLimitMixRegimes:
    def test_limit_ll(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "--regime", "ll", "--r", "1", "--s", "2",
            "--lower-tail", "gumbel", "--x-grid", "0", "--y-grid", "0",
        )
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        # Gamma_2(1) at the diagonal
        assert value == pytest.approx(1.0 - 2.0 / math.e, abs=1e-9)

    def test_limit_lu_and_mix_lu(self, capsys):
        common = [
            "--regime", "lu", "--r", "1", "--s", "1",
            "--lower-tail", "gumbel", "--upper-tail", "gumbel",
            "--x-grid", "0", "--y-grid", "0",
        ]
        code, out, _ = run_cli(capsys, "limit", *common)
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx((1.0 - math.exp(-1.0)) * math.exp(-1.0), abs=1e-10)
        code, out, _ = run_cli(capsys, "mix", *common, "--H", "exponential")
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(1.0 / 6.0, abs=1e-7)

    def test_missing_tail_transform_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "limit", "--regime", "uu", "--r", "2", "--s", "1",
            "--x-grid", "0", "--y-grid", "0",
        )
        assert code == 1
        assert "upper-tail" in err


class TestExtremeArguments:
    """Where a transform or its power overflows a float the df is 0, not a
    numerical failure."""

    @pytest.mark.parametrize("verb", ["limit", "mix"])
    def test_overflowing_kappa_power(self, capsys, verb):
        extra = ["--H", "exponential"] if verb == "mix" else []
        code, out, _ = run_cli(
            capsys, verb, "--regime", "uu", "--r", "2", "--s", "1", "--m", "1.5",
            "--upper-tail", "frechet:1", "--x-grid", "1e-130", "--y-grid", "1", *extra,
        )
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[2]) == 0.0

    @pytest.mark.parametrize("name", ["normal-range", "normal-midrange", "lognormal-range"])
    def test_range_far_left(self, capsys, name):
        code, out, _ = run_cli(capsys, "example", name, "--at=-1000")
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == 0.0

    @pytest.mark.parametrize("argv,want", [
        (["power-range", "--m", "39", "--at=-1e10"], 0.0),
        (["power-midrange", "--m", "39", "--at=1e10"], 1.0),
        (["cauchy-midrange", "--at=-1e300"], 0.0),
    ], ids=["power-range", "power-midrange", "cauchy-midrange"])
    def test_range_power_overflow(self, capsys, argv, want):
        # a bounded-tail power (t eta)^alpha or a Frechet 1/(t + y) past the
        # float range is taken at its limit, where the df saturates
        code, out, _ = run_cli(capsys, "example", *argv)
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) == want

    @pytest.mark.parametrize("law", ["degenerate:1", "degenerate:1e300", "degenerate:1e-300",
                                     "exponential"])
    @pytest.mark.parametrize("at,want", [("inf", 1.0), ("-inf", 0.0)])
    def test_infinite_t_is_the_df_limit(self, capsys, law, at, want):
        # on the two-sided route the rule's x = t + y/eta met inf - inf at an
        # infinite t under a law of extreme mean, and read 1 - 4e-14 elsewhere
        for name in example_names():
            code, out, err = run_cli(capsys, "example", name, f"--at={at}", "--law", law)
            assert (code, err) == (0, ""), name
            assert float(out.strip().splitlines()[-1].split(",")[1]) == want, name


_NORMAL = parse_model("normal")
_GOS5 = GosParams(m=0.0, k=1.0, n=5)


def _cli_nan_grid(capsys):
    code, out, err = run_cli(
        capsys, "exact", "--dist", "normal", "--n", "5", "--marginal", "upper", "--grid", "nan"
    )
    assert (code, out) == (2, "")
    raise ValueError(err)


class TestNanRejected:
    @pytest.mark.parametrize(
        "call",
        [
            _cli_nan_grid,
            lambda _: parse_number("nan"),
            lambda _: parse_number("-NaN"),
            lambda _: kappa(TailTransform(ExtremeSide.UPPER, "frechet", 1.0), math.nan),
            lambda _: kappa(TailTransform(ExtremeSide.UPPER, "weibull", 1.0), math.nan),
            lambda _: kappa(TailTransform(ExtremeSide.UPPER, "gumbel"), math.nan),
            lambda _: rho(TailTransform(ExtremeSide.LOWER, "frechet", 1.0), math.nan),
            lambda _: rho(TailTransform(ExtremeSide.LOWER, "weibull", 1.0), math.nan),
            lambda _: rho(TailTransform(ExtremeSide.LOWER, "gumbel"), math.nan),
            lambda _: marginal_upper_df(_GOS5, _NORMAL, 1, math.nan),
            lambda _: marginal_lower_df(_GOS5, _NORMAL, 1, math.nan),
            lambda _: joint_df(_GOS5, _NORMAL, RankPair(2, 1, Regime.UPPER_UPPER),
                               math.nan, 1.0),
            lambda _: joint_df(_GOS5, _NORMAL, RankPair(1, 2, Regime.LOWER_LOWER),
                               math.nan, 1.0),
        ],
        ids=[
            "cli-exact-grid", "parse_number", "parse_number-negated",
            "kappa-frechet", "kappa-weibull", "kappa-gumbel",
            "rho-frechet", "rho-weibull", "rho-gumbel",
            "marginal_upper_df", "marginal_lower_df", "joint_upper_df", "joint_lower_df",
        ],
    )
    def test_nan_raises(self, capsys, call):
        with pytest.raises(ValueError, match="(?i)nan"):
            call(capsys)


class TestNonFiniteIndexParameters:
    """An infinite point mass or T-spec value is refused when the law or mode
    is built, before any table or sample is computed."""

    @pytest.mark.parametrize("argv,message", [
        (["mix", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "frechet:1",
          "--H", "degenerate:inf"], "degenerate law needs a finite point mass c, got c=inf"),
        (["example", "pareto-range", "--at", "1", "--law", "degenerate:inf"],
         "degenerate law needs a finite point mass c, got c=inf"),
        (["simulate", "--dist", "logistic", "--n", "40", "--regime", "uu", "--r", "2",
          "--s", "1", "--x-grid", "0", "--index", "dependent:const:inf"],
         "dependent const T-spec needs a finite c, got c=inf"),
        (["simulate", "--dist", "logistic", "--n", "40", "--regime", "uu", "--r", "2",
          "--s", "1", "--x-grid", "0", "--index", "dependent:uniform:0.5:inf"],
         "dependent uniform T-spec needs a finite b, got b=inf"),
    ], ids=["mix-H", "example-law", "simulate-const", "simulate-uniform"])
    def test_exits_2_with_a_validation_failure(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == f"validation failure: {message}\n"
        assert not out.exists()


class TestNonFiniteModelParameters:
    """An infinite family parameter, m, k or tail exponent is refused when the
    model, parameters or transform is built, before any table is computed."""

    @pytest.mark.parametrize("argv,message", [
        (["exact", "--dist", "pareto(sigma=inf)", "--n", "10", "--marginal", "upper",
          "--grid", "1:2:3"], "pareto parameter sigma must be finite, got inf"),
        (["example", "pareto-range", "--sigma", "inf", "--at", "1"],
         "pareto parameter sigma must be finite, got inf"),
        (["example", "uniform-range", "--theta", "inf", "--at", "0.5"],
         "uniform parameter theta must be finite, got inf"),
        (["limit", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "gumbel",
          "--k", "inf", "--x-grid", "1", "--y-grid", "2"], "k must be finite, got inf"),
        (["limit", "--regime", "lu", "--r", "1", "--s", "1", "--upper-tail", "weibull:inf",
          "--lower-tail", "gumbel", "--x-grid=-0.5", "--y-grid=-0.5"],
         "weibull transform requires a finite alpha, got inf"),
        (["exact", "--dist", "normal", "--m", "inf", "--n", "10", "--marginal", "upper",
          "--grid", "1:2:3"], "m must be finite, got inf"),
        (["example", "logistic-midrange", "--m", "inf", "--at", "1"], "m must be finite, got inf"),
    ], ids=["exact-sigma", "example-sigma", "example-theta", "limit-k", "limit-alpha",
            "exact-m", "example-m"])
    def test_exits_2_with_a_validation_failure(self, capsys, tmp_path, argv, message):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == f"validation failure: {message}\n"
        assert not out.exists()


# Half this table's mass lies within 1e-300 of z = 0.
_NEAR_ZERO_TABLE = "z,H\n0,0\n1e-300,0.5\n2,1\n"


class TestEdgeSweepReproducers:
    """Valid inputs whose values no float can carry end as a numerical
    failure, m and k whose ratio ell no float can carry are refused, and
    overflows whose limit is the right value pass quietly (the suite raises
    every RuntimeWarning as an error)."""

    @pytest.mark.parametrize("argv", [
        ["uniform-midrange", "--m", "0", "--k", "1e300", "--at=-0.999999"],
        ["power-midrange", "--m", "0.5", "--k", "1e-300", "--at=2.5"],
    ], ids=["uniform-midrange", "power-midrange"])
    def test_weight_past_the_largest_float(self, capsys, tmp_path, argv):
        # the index weight over s = ln w keeps mass beyond w = 1.8e308
        law = tmp_path / "h.csv"
        law.write_text(_NEAR_ZERO_TABLE)
        code, out, err = run_cli(capsys, "example", *argv, "--law", f"table:{law}")
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: the index law's weight reaches past w = 1.8e308")

    @pytest.mark.parametrize("argv", [
        ["--m", "1e300", "--k", "1.3", "--n", "50", "--regime", "uu", "--r", "3", "--s", "2",
         "--index", "dependent:uniform:0.5:1.5", "--x-grid=1e-8:0:1", "--y-grid=1e-8:0:1"],
        ["--m", "-0.999999", "--k", "0.5", "--n", "5", "--regime", "lu", "--r", "1", "--s", "2",
         "--index", "geometric", "--x-grid=0:1:2", "--y-grid=0:1:2"],
    ], ids=["m-1e300", "m-near-minus-1"])
    def test_norming_constants_out_of_range(self, capsys, argv):
        # the upper tail mass u = N^(-1/(m+1)) rounds to 1 or 0
        code, out, err = run_cli(capsys, "simulate", "--dist", "logistic", *argv, "--reps", "50")
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: normalizing constants (a, b, c, d) = ")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "normal", "--regime", "uu", "--r", "2", "--s", "1", "--m", "1e300",
         "--k", "1e300", "--n", "50", "--reps", "7", "--x-grid=0:1:2"],
        ["simulate", "--dist", "normal", "--regime", "uu", "--r", "3", "--s", "1",
         "--m", "-0.999999999", "--k", "1", "--n", "50", "--reps", "7", "--x-grid=0:1:2"],
        ["example", "lognormal-range", "--m", "-0.999999999", "--k", "1e-300",
         "--law", "degenerate:2.5", "--at=0.5", "--sim-n", "50", "--sim-reps", "1"],
        ["simulate", "--dist", "cauchy", "--regime", "lu", "--r", "1", "--s", "1",
         "--m", "-0.999999999", "--k", "1e-300", "--n", "2", "--reps", "7", "--x-grid=0:1:2"],
    ], ids=["normal-size-one", "normal-size-overflow", "lognormal-level-one", "cauchy-level-one"])
    def test_norming_constants_of_every_family(self, capsys, argv):
        # an effective size that rounds to 1 or overflows, and a tail level
        # that rounds to 1, end in the documented error, not a bare one
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: normalizing constants (a, b, c, d) = ")

    @pytest.mark.parametrize("argv", [
        ["limit", "--regime", "uu", "--r", "2", "--s", "1", "--m", "-0.999999999", "--k", "1e300",
         "--upper-tail", "gumbel", "--x-grid=0:1:2", "--y-grid=0:1:2"],
        ["exact", "--dist", "logistic", "--n", "5", "--regime", "uu", "--r", "2", "--s", "1",
         "--m", "1e300", "--k", "1e-300", "--x-grid=0:0:1", "--y-grid=1:1:1"],
    ], ids=["ell-inf", "ell-zero"])
    def test_ell_out_of_range(self, capsys, argv):
        # valid m and k whose ratio ell = k/(m+1) no float carries
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("validation failure: ell = k/(m+1) must be positive and finite")
        assert f"at m={float(argv[argv.index('--m') + 1])}, k=" in err

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--dist", "logistic", "--regime", "uu", "--r", "2", "--s", "1", "--n", "50",
          "--reps", "5", "--index", "dependent:const:1e300", "--x-grid=0:1:2"],
         "index mode dependent:const:1e+300 at n = 50 draws nu = 5e+301"),
        (["simulate", "--dist", "logistic", "--regime", "ll", "--r", "1", "--s", "2", "--n", "50",
          "--reps", "5", "--index", "dependent:uniform:0.5:1e300", "--x-grid=0:1:2"],
         "index mode dependent:uniform:0.5:1e+300 at n = 50 draws nu = "),
        (["example", "exponential-midrange", "--m", "0.5", "--k", "1e300", "--law",
          "degenerate:1e300", "--sim-n", "50", "--sim-reps", "16", "--grid=1e-300:1:2"],
         "index mode dependent:const:1e+300 at n = 50 draws nu = 5e+301"),
        (["simulate", "--dist", "logistic", "--regime", "uu", "--r", "2", "--s", "1", "--n", "50",
          "--reps", "5", "--index", "dependent:const:1e308", "--x-grid=0:1:2"],
         "index mode dependent:const:1e+308 at n = 50 draws nu = inf"),
    ], ids=["const", "uniform", "example", "n-times-c-overflows"])
    def test_sample_size_past_int64(self, capsys, argv, message):
        # no sample holds nu past 2**63 - 1: the input is refused, not a numerical failure
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"validation failure: {message}")
        assert err.endswith(", past the largest sample size 2**63 - 1\n")

    def test_survival_that_rounds_to_one_at_a_huge_m(self, capsys):
        # S = 1 - F rounds to 1 at x = 1e-300 (F = 1e-150), yet Lbar_m = (1 - F)^(m+1)
        # is exp(-1e150) = 0 at m = 1e300: both lower extremes lie below x and y
        code, out, err = run_cli(
            capsys, "exact", "--regime", "ll", "--r", "1", "--s", "2", "--m", "1e300", "--k", "1",
            "--x-grid=1e-300:0.5:1", "--y-grid=0.5:0.5:1", "--dist", "power(alpha=0.5)",
            "--n", "50")
        assert (code, err) == (0, "")
        assert out.strip().splitlines()[-1] == "1e-300,0.5,1"

    def test_degenerate_law_product_past_the_largest_float(self, capsys):
        # eta = inf: the df is Q(ell, z kappa(t)^(m+1)) at z = 1e300, kappa(t) = 1/t
        code, out, err = run_cli(capsys, "example", "pareto-range", "--m", "1e-8", "--k", "0.5",
                                 "--law", "degenerate:1e300", "--at=1e-300")
        assert (code, err) == (0, "")
        m = mpmath.mpf("1e-8")
        want = mpmath.gammainc(mpmath.mpf("0.5") / (m + 1), mpmath.mpf("1e300")
                               * mpmath.mpf("1e300") ** (m + 1), regularized=True)
        assert float(out.strip().splitlines()[-1].split(",")[1]) == float(want)

    def test_upper_upper_ratio_on_the_branch_not_taken(self, capsys):
        from gosextreme.reference import omega_uu

        code, out, err = run_cli(
            capsys, "limit", "--regime", "uu", "--m", "1e-8", "--k", "0.5", "--r", "2", "--s", "1",
            "--upper-tail", "frechet:1", "--lower-tail", "weibull:1e300",
            "--x-grid=1e-300:1e300:3", "--y-grid=1e-300:1e300:3")
        assert (code, err) == (0, "")
        params = GosParams(m=1e-8, k=0.5, n=2)
        up = TailTransform(ExtremeSide.UPPER, "frechet", 1.0)
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[-9:]]
        assert [value for _, _, value in rows] == [
            omega_uu(params, 2, 1, kappa(up, x), kappa(up, y)) for x, y, _ in rows]


class TestBadNumericFlag:
    """parse_number is the argparse type of these flags: a malformed value is
    a usage error (exit 1, no traceback), not an uncaught exception."""

    LIMIT = ["limit", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "gumbel",
             "--upper-tail", "gumbel", "--x-grid", "0", "--y-grid", "0"]
    EXAMPLE = ["example", "beta-range", "--at", "0"]

    @pytest.mark.parametrize("argv", [
        LIMIT + ["--m", "foo"],
        LIMIT + ["--k", "foo"],
        EXAMPLE + ["--sigma", "foo"],
        EXAMPLE + ["--theta", "foo"],
        EXAMPLE + ["--alpha", "foo"],
        EXAMPLE + ["--beta", "foo"],
    ], ids=["m", "k", "sigma", "theta", "alpha", "beta"])
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "invalid parse_number value: 'foo'" in err
        assert "Traceback" not in err and out == ""

    def test_grid_and_at_keep_their_codes(self, capsys):
        assert run_cli(capsys, *self.LIMIT[:-2], "--y-grid", "foo")[0] == 1
        assert run_cli(capsys, *self.LIMIT[:-2], "--y-grid", "nan")[0] == 2
        assert run_cli(capsys, "example", "beta-range", "--at", "foo")[0] == 1
        assert run_cli(capsys, "example", "beta-range", "--at", "nan")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["exact", "--dist", "logistic", "--n", "5", "--marginal", "upper", "--grid", "0:1:abc"],
        ["exact", "--dist", "logistic", "--n", "5", "--marginal", "upper", "--grid", "0:1:2.5"],
        LIMIT[:-4] + ["--x-grid", "0:1:x", "--y-grid", "0"],
    ], ids=["abc", "fraction", "limit"])
    def test_malformed_grid_count(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "grid count" in err and "Traceback" not in err and out == ""


# One valid call of each verb, small enough to run in a fresh interpreter.
_EACH_VERB = [
    ["exact", "--dist", "logistic", "--n", "20", "--marginal", "upper", "--grid", "0:2:3"],
    ["limit", "--regime", "uu", "--r", "2", "--s", "1", "--upper-tail", "gumbel",
     "--x-grid", "0:1:2", "--y-grid", "0:1:2"],
    ["mix", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:1",
     "--upper-tail", "frechet:1", "--H", "exponential", "--x-grid", "0.5", "--y-grid", "1"],
    ["simulate", "--dist", "exponential(sigma=1)", "--n", "30", "--regime", "lu", "--r", "1",
     "--s", "1", "--reps", "40", "--seed", "3", "--x-grid", "0:1:2", "--y-grid", "0"],
    ["example", "logistic-midrange", "--grid=-1:1:3", "--format", "json"],
    ["selftest", "--fast"],
]


class TestParserOncePerProcess:
    def test_built_once(self):
        from gosextreme.cli import build_parser

        assert build_parser() is build_parser()

    def test_reuse_after_a_usage_error_matches_fresh_processes(self, capsys, tmp_path):
        import os
        import subprocess
        import sys

        def fresh(argv, out):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-m", "gosextreme.cli", *argv, "--out", out],
                                  env=env, capture_output=True)
            return done.returncode

        bad = ["limit", "--regime", "uu", "--r", "two", "--s", "1"]
        assert main([*bad, "--out", str(tmp_path / "bad.out")]) == 1
        assert fresh(bad, str(tmp_path / "bad-fresh.out")) == 1
        for i, argv in enumerate(_EACH_VERB):
            here, there = tmp_path / f"{i}.out", tmp_path / f"{i}-fresh.out"
            assert main([*argv, "--out", str(here)]) == fresh(argv, str(there)) == 0
            assert here.read_bytes() == there.read_bytes(), argv[0]
        capsys.readouterr()


class TestParserParity:
    """`main` reads a verb's arguments with that verb's parser alone; every
    other command line must read as it does through the whole parser."""

    _ODD = [
        [],
        ["--help"],
        ["bogus", "--n", "5"],
        ["exact", "--dist", "logistic", "--n", "5", "--marginal", "upper", "--bogus", "1"],
        ["limit", "--regime", "uu", "--r", "two", "--s", "1"],
        ["exact", "-h"],
    ]

    @staticmethod
    def _outcome(capsys, call):
        try:
            code = call()
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", _ODD, ids=lambda argv: " ".join(argv) or "empty")
    def test_same_exit_and_output_as_the_whole_parser(self, capsys, argv):
        import sys

        from gosextreme.cli import _UsageExit, build_parser

        def whole():
            try:
                build_parser().parse_args(argv)
            except _UsageExit as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return "parsed"

        want = self._outcome(capsys, whole)
        assert want[0] != "parsed"
        assert self._outcome(capsys, lambda: main(argv)) == want

    @pytest.mark.parametrize("argv", _EACH_VERB, ids=lambda argv: argv[0])
    def test_same_namespace_as_the_whole_parser(self, argv):
        from gosextreme.cli import _parse, build_parser

        argv = [*argv, "--out", "x.out"]
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))


class TestNegativeSimReps:
    def test_exits_2_with_a_validation_failure(self, capsys, tmp_path):
        # --sim-reps 0 means no overlay; below it is a bad count
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "example", "pareto-range", "--grid", "1:2:3",
                               "--sim-reps", "-5", "--out", str(out))
        assert code == 2
        assert err == "validation failure: replications must be >= 1\n"
        assert not out.exists()


class TestRangeRepro:
    def test_logistic_midrange_far_right(self, capsys):
        # Once a QUADPACK miss that exited 2; 256-, 512- and 1024-node rules
        # agree on this value to 1e-14.
        code, out, _ = run_cli(capsys, "example", "logistic-midrange", "--m", "1.2",
                               "--k", "1.3", "--at", "8.6")
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(0.99994446493667, rel=0.0, abs=1e-12)


class TestLabelsRoundTrip:
    def test_simulate_model_keeps_every_digit(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dist", "pareto(sigma=1.0000001)",
                               "--n", "20", "--regime", "uu", "--r", "2", "--s", "1",
                               "--reps", "20", "--x-grid", "1")
        assert code == 0
        label = json.loads(out)["config"]["model"]
        assert label == "pareto(sigma=1.0000001)"
        assert parse_model(label).params == {"sigma": 1.0000001}

    def test_example_model_keeps_every_digit(self, capsys):
        code, out, _ = run_cli(capsys, "example", "beta-range", "--m", "0.1234567", "--at", "1")
        assert code == 0
        label = next(line for line in out.splitlines() if line.startswith("# dist="))[7:]
        assert parse_model(label).params == {"alpha": (0.1234567 + 1.0) * 2.0, "beta": 2.0}


_SIMULATE_CSV = ["simulate", "--dist", "logistic", "--m", "0.5", "--n", "40", "--regime", "uu",
                 "--r", "2", "--s", "1", "--index", "geometric", "--reps", "300", "--seed", "11",
                 "--x-grid=-1:1:3", "--y-grid=-0.5:1.5:2", "--format", "csv"]

# The CSV that `simulate` wrote through its own writer before it went through `emit`.
_SIMULATE_CSV_BYTES = """\
# grid_size=6
# index_mode=geometric
# k=1.0
# m=0.5
# model=logistic
# n=40
# r=2
# regime=upper_upper
# replications=300
# s=1
# seed=11
# sup_distance=0.0315150263496834
x,y,empirical,analytic,standard_error
-1,-0.5,0.18,0.18841064371073,0.0221810730128188
-1,1.5,0.276666666666667,0.272061613808963,0.0258277771802777
0,-0.5,0.206666666666667,0.227338324995804,0.0233777355301688
0,1.5,0.616666666666667,0.614738141116926,0.0280706779925773
1,-0.5,0.206666666666667,0.227338324995804,0.0233777355301688
1,1.5,0.813333333333333,0.78181830698365,0.0224960901952778
"""


# The JSON report, `simulate`'s default format, of the same run; its bytes
# were recorded before the report's payload came from `dataclasses.asdict`.
_SIMULATE_JSON_BYTES = """\
{
  "analytic": [
    0.18841064371073046,
    0.27206161380896277,
    0.22733832499580423,
    0.6147381411169264,
    0.22733832499580423,
    0.78181830698365
  ],
  "config": {
    "grid_size": 6,
    "index_mode": "geometric",
    "k": 1.0,
    "m": 0.5,
    "model": "logistic",
    "n": 40,
    "r": 2,
    "regime": "upper_upper",
    "replications": 300,
    "s": 1,
    "seed": 11
  },
  "empirical": [
    0.18,
    0.27666666666666667,
    0.20666666666666667,
    0.6166666666666667,
    0.20666666666666667,
    0.8133333333333334
  ],
  "grid": [
    [
      -1.0,
      -0.5
    ],
    [
      -1.0,
      1.5
    ],
    [
      0.0,
      -0.5
    ],
    [
      0.0,
      1.5
    ],
    [
      1.0,
      -0.5
    ],
    [
      1.0,
      1.5
    ]
  ],
  "seed": 11,
  "standard_errors": [
    0.022181073012818835,
    0.02582777718027771,
    0.023377735530168836,
    0.028070677992577286,
    0.023377735530168836,
    0.0224960901952778
  ],
  "sup_distance": 0.031515026349683395
}"""


class TestSimulateJson:
    def test_bytes_unchanged(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = _SIMULATE_CSV[:_SIMULATE_CSV.index("--format")]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == _SIMULATE_JSON_BYTES


class TestSimulateCsv:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(capsys, *_SIMULATE_CSV)
        assert code == 0
        lines = out.splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "x,y,empirical,analytic,standard_error"
        assert lines[header_idx - 1].startswith("# sup_distance=")
        assert len(lines) - header_idx - 1 == 6

    def test_bytes_unchanged(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([*_SIMULATE_CSV, "--out", str(out)]) == 0
        assert out.read_text() == _SIMULATE_CSV_BYTES


# A five-node tabulated index law, and the CSV the tabulated kernel wrote under
# it when each segment ran all 21 rows of its small-w series and took the
# gamma ratios at both of its ends.
_TABLE_LAW = "z,H\n0.3,0\n0.8,0.25\n1.4,0.5\n2.1,0.8\n3.0,1\n"

_TABLE_MIX_CSV = ["mix", "--regime", "lu", "--r", "1", "--s", "1", "--lower-tail", "weibull:1",
                  "--upper-tail", "frechet:1", "--m", "0.5", "--k", "1", "--x-grid=0.2:3:3",
                  "--y-grid=0.5:4:3", "--format", "csv"]

_TABLE_MIX_CSV_BYTES = """\
# H=tabulated[5]
# format=csv
# k=1.0
# lower_tail=weibull:1
# m=0.5
# r=1
# regime=lu
# s=1
# upper_tail=frechet:1
# verb=mix
# x_grid=0.2:3:3
# y_grid=0.5:4:3
x,y,value
0.2,0.5,0.00443077138472412
0.2,2.25,0.104408745410807
0.2,4,0.155270038004593
1.6,0.5,0.0231508983469359
1.6,2.25,0.384378917375591
1.6,4,0.548731513713621
3,0.5,0.0313127265947665
3,2.25,0.448989663077595
3,4,0.630870520785682
"""

_TABLE_RANGE_CSV = ["example", "normal-range", "--grid", "0:4:5", "--format", "csv"]

_TABLE_RANGE_CSV_BYTES = """\
# dist=normal
# format=csv
# grid=0:4:5
# k=1.0
# law=tabulated[5]
# m=0.0
# name=normal-range
# verb=example
t,analytic
0,0.232607102351344
1,0.407202687584517
2,0.598940233147015
3,0.76126798052024
4,0.872116347165891
"""


class TestTableLawCsv:
    @pytest.mark.parametrize("argv,flag,want", [
        (_TABLE_MIX_CSV, "--H", _TABLE_MIX_CSV_BYTES),
        (_TABLE_RANGE_CSV, "--law", _TABLE_RANGE_CSV_BYTES),
    ], ids=["mix-lu", "normal-range"])
    def test_bytes_unchanged(self, tmp_path, argv, flag, want):
        law = tmp_path / "h.csv"
        law.write_text(_TABLE_LAW)
        out = tmp_path / "table.csv"
        assert main([*argv, flag, f"table:{law}", "--out", str(out)]) == 0
        assert out.read_text() == want


# Tables over 3 x 4 grids, written when `_xy_table` took each on the
# flattened grid: each holds points on both sides of x = y, and a swap of
# the x and y order changes the bytes.
_XY_CSV = {
    "limit-uu": (["limit", "--regime", "uu", "--r", "3", "--s", "1", "--m", "0.5", "--k", "1.3",
                  "--upper-tail", "gumbel", "--x-grid=-1:2:3", "--y-grid=-0.5:2:4"],
                 """\
# format=csv
# k=1.3
# lower_tail=
# m=0.5
# r=3
# regime=uu
# s=1
# upper_tail=gumbel
# verb=limit
# x_grid=-1:2:3
# y_grid=-0.5:2:4
x,y,value
-1,-0.5,0.0541869638353698
-1,0.333333333333333,0.116616515902183
-1,1.16666666666667,0.142632733989491
-1,2,0.151912126740974
0.5,-0.5,0.0948855348718419
0.5,0.333333333333333,0.477261948202558
0.5,1.16666666666667,0.783517766201137
0.5,2,0.913205108381452
2,-0.5,0.0948855348718419
2,0.333333333333333,0.477261948202558
2,1.16666666666667,0.786809368905924
2,2,0.923658298589991
"""),
    "limit-ll": (["limit", "--regime", "ll", "--r", "1", "--s", "3", "--m", "0.5", "--k", "1.3",
                  "--lower-tail", "weibull:2", "--x-grid=0.1:1.5:3", "--y-grid=0.2:2:4"],
                 """\
# format=csv
# k=1.3
# lower_tail=weibull:2
# m=0.5
# r=1
# regime=ll
# s=3
# upper_tail=
# verb=limit
# x_grid=0.1:1.5:3
# y_grid=0.2:2:4
x,y,value
0.1,0.2,5.99555560545667e-06
0.1,0.8,0.00132893511772816
0.1,1.4,0.00578779991261512
0.1,2,0.00903530008833973
0.8,0.2,1.03517302619816e-05
0.8,0.8,0.0272509361253839
0.8,1.4,0.234713187968754
0.8,2,0.417848574357415
1.5,0.2,1.03517302619816e-05
1.5,0.8,0.027250936125384
1.5,1.4,0.312498219168563
1.5,2,0.734911298876984
"""),
    "limit-lu": (["limit", "--regime", "lu", "--r", "2", "--s", "1", "--m", "0.5", "--k", "1.3",
                  "--lower-tail", "frechet:1.5", "--upper-tail", "weibull:2",
                  "--x-grid=-3:-0.5:3", "--y-grid=-2:0.5:4"],
                 """\
# format=csv
# k=1.3
# lower_tail=frechet:1.5
# m=0.5
# r=2
# regime=lu
# s=1
# upper_tail=weibull:2
# verb=limit
# x_grid=-3:-0.5:3
# y_grid=-2:0.5:4
x,y,value
-3,-2,3.72288068246356e-06
-3,-1.16666666666667,0.00269897191614438
-3,-0.333333333333333,0.0153366561330428
-3,0.5,0.0163056010124635
-1.75,-2,1.60555807929664e-05
-1.75,-1.16666666666667,0.0116397933089083
-1.75,-0.333333333333333,0.0661420396302005
-1.75,0.5,0.0703207856396416
-0.5,-2,0.000176654612867415
-0.5,-1.16666666666667,0.128069062549436
-0.5,-0.333333333333333,0.727740500689513
-0.5,0.5,0.773717956633833
"""),
    "exact-uu": (["exact", "--dist", "logistic", "--n", "30", "--m", "0.5", "--k", "1.3",
                  "--regime", "uu", "--r", "3", "--s", "1", "--x-grid=0:3:3", "--y-grid=-1:4:4"],
                 """\
# dist=logistic
# format=csv
# k=1.3
# m=0.5
# n=30
# r=3
# regime=uu
# s=1
# verb=exact
# x_grid=0:3:3
# y_grid=-1:4:4
x,y,value
0,-1,1.01537204642001e-13
0,0.666666666666667,4.8187634463229e-05
0,2.33333333333333,0.000203873623011732
0,4,0.000242700314833777
1.5,-1,1.01537204642001e-13
1.5,0.666666666666667,0.000957190541704844
1.5,2.33333333333333,0.301404222551242
1.5,4,0.51563709990716
3,-1,1.01537204642001e-13
3,0.666666666666667,0.000957190541704844
3,2.33333333333333,0.386688000695978
3,4,0.893676923407997
"""),
    "exact-ll": (["exact", "--dist", "logistic", "--n", "30", "--m", "0.5", "--k", "1.3",
                  "--regime", "ll", "--r", "1", "--s", "3", "--x-grid=-4:-1:3", "--y-grid=-4:1:4"],
                 """\
# dist=logistic
# format=csv
# k=1.3
# m=0.5
# n=30
# r=1
# regime=ll
# s=3
# verb=exact
# x_grid=-4:-1:3
# y_grid=-4:1:4
x,y,value
-4,-4,0.0453626421538103
-4,-2.33333333333333,0.485754154904519
-4,-0.666666666666667,0.556525970276983
-4,1,0.556526295881168
-2.5,-4,0.0453626421538103
-2.5,-2.33333333333333,0.761885357185226
-2.5,-0.666666666666667,0.970818429853338
-2.5,1,0.970819660355042
-1,-4,0.0453626421538103
-1,-2.33333333333333,0.762535256261003
-1,-0.666666666666667,0.99999634102181
-1,1,0.999999196367371
"""),
}


class TestXyTableCsv:
    @pytest.mark.parametrize("name", sorted(_XY_CSV))
    def test_bytes_unchanged(self, tmp_path, name):
        argv, want = _XY_CSV[name]
        out = tmp_path / "table.csv"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text() == want


class TestClosedStdout:
    ARGV = ["exact", "--dist", "logistic", "--n", "5", "--marginal", "upper"]

    def test_exits_141_without_a_message(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)  # the small table stays in the buffer
        with subprocess.Popen([sys.executable, "-m", "gosextreme.cli", *self.ARGV], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # the reader is gone before the table is written
            err = proc.stderr.read()
        assert proc.returncode == 141
        assert err == b""

    def test_an_in_process_exit_leaves_no_descriptor_open(self, monkeypatch):
        import os
        import sys

        opened, os_open = [], os.open

        def recording(*args, **kwargs):
            opened.append(os_open(*args, **kwargs))
            return opened[-1]

        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            patch.setattr(os, "open", recording)
            assert main(self.ARGV) == 141
        assert opened, "the broken pipe was not redirected to the null device"
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)
