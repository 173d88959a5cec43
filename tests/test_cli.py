"""CLI behavior: output shapes, exit codes, determinism, error mapping."""

from fractions import Fraction

import pytest

from tourlab.cli import main


@pytest.fixture
def triangle(tmp_path):
    p = tmp_path / "c3.edges"
    p.write_text("3 3\n1 2\n2 3\n3 1\n")
    return str(p)


@pytest.fixture
def chain(tmp_path):
    p = tmp_path / "path.edges"
    p.write_text("3 2\n1 2\n2 3\n")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_triangle(capsys, triangle):
    code, out, err = run_cli(capsys, "analyze", triangle)
    assert code == 0 and err == ""
    assert "verdict=avoidable witness=cycle:1,2,3" in out
    assert "#RESULT avoidable,cycle:1,2,3" in out


def test_analyze_expect_mismatch_exits_1(capsys, triangle):
    code, out, _ = run_cli(capsys, "analyze", triangle, "--expect", "unavoidable")
    assert code == 1
    assert "#RESULT avoidable,cycle:1,2,3" in out


def test_analyze_expect_match_exits_0(capsys, triangle):
    code, _, _ = run_cli(capsys, "analyze", triangle, "--expect", "avoidable")
    assert code == 0


def test_analyze_acyclic_file(capsys, chain):
    code, out, _ = run_cli(capsys, "analyze", chain)
    assert code == 0
    assert "verdict=unavoidable" in out
    assert "#RESULT unavoidable," in out


def test_analyze_families(capsys):
    code, out, _ = run_cli(capsys, "analyze", "anti-path")
    assert code == 0 and "verdict=unavoidable" in out
    code, out, _ = run_cli(capsys, "analyze", "forward-path")
    assert code == 0
    assert "witness=infinite-path-certificate:forward-path" in out


def test_analyze_budget_flag_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "analyze", "random-graph:7", "--budget", "3")
    assert code == 0
    assert "verdict=inconclusive" in out
    assert "#RESULT inconclusive," in out


def test_env_budget_applies(capsys, monkeypatch):
    monkeypatch.setenv("TOURLAB_BUDGET", "3")
    code, out, _ = run_cli(capsys, "analyze", "random-graph:7")
    assert code == 0 and "verdict=inconclusive" in out


def test_env_budget_rejected(capsys, monkeypatch):
    monkeypatch.setenv("TOURLAB_BUDGET", "zero")
    code, _, err = run_cli(capsys, "analyze", "anti-path")
    assert code == 2
    assert err.startswith("#ERROR invalid-argument:")


def test_analyze_unknown_family(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-family")
    assert code == 2
    assert err.startswith("#ERROR graph-format:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# embed


def test_embed_family_summary(capsys):
    code, out, _ = run_cli(
        capsys, "embed", "--graph", "anti-path",
        "--tournament", "random:42", "--horizon", "30",
    )
    assert code == 0
    assert "covered=30 valid=true" in out
    assert any(line.startswith("#RESULT covered=30,valid=true") for line in out.splitlines())


def test_embed_reruns_byte_identical(capsys):
    args = ("embed", "--graph", "interleaved-forest",
            "--tournament", "random:7", "--horizon", "20")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_embed_finite_file_uses_file_labels(capsys, tmp_path):
    p = tmp_path / "iso.edges"
    p.write_text("4 0\n")
    code, out, _ = run_cli(
        capsys, "embed", "--graph", str(p),
        "--tournament", "transitive-omega", "--horizon", "4",
    )
    assert code == 0
    lines = out.splitlines()
    pairs = [tuple(map(int, l.split())) for l in lines if l and l[0].isdigit()]
    assert sorted(p[0] for p in pairs) == [1, 2, 3, 4]
    assert "covered=4 valid=true" in out


def test_embed_always_infinite_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "embed", "--graph", "anti-path",
        "--tournament", "random:3", "--horizon", "10",
        "--oracle", "always-infinite",
    )
    assert code == 0
    assert "valid=true" in out


# ---------------------------------------------------------------------------
# density / inversions CSV


def test_density_csv_frozen_rows(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--tournament", "factorial-block",
        "--nmax", "30", "--stride", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,forward_pairs,total_pairs,density"
    assert lines[1] == "7,6,21,2/7"
    assert lines[-1] == "#RESULT rows=5,min_density=2/7"


def test_density_csv_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--tournament", "random:11", "--nmax", "60", "--stride", "9",
    )
    assert code == 0
    rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
    for row in rows:
        n, fwd, total, dens = row.split(",")
        assert int(total) == int(n) * (int(n) - 1) // 2
        assert Fraction(dens) == Fraction(int(fwd), int(total))


def test_inversions_scheme_argument(capsys):
    code, out, _ = run_cli(
        capsys, "inversions", "--injection", "nested-dip:r=2,q=0.9,L0=16",
        "--nmax", "40", "--stride", "13",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,forward_pairs,total_pairs,density"
    assert lines[1] == "13,78,78,1"
    assert "#RESULT rows=4,min_density=718/741" in out


def test_inversions_file_argument(capsys, tmp_path):
    p = tmp_path / "inj.txt"
    p.write_text("tail factorial\n1 0 100\n")
    code, out, _ = run_cli(capsys, "inversions", "--injection", str(p), "--nmax", "8")
    assert code == 0
    assert out.splitlines()[1] == "2,1,1,1"
    assert "8,14,28,1/2" in out


def test_inversions_bad_scheme(capsys):
    code, _, err = run_cli(capsys, "inversions", "--injection", "bogus", "--nmax", "10")
    assert code == 2
    assert err.startswith("#ERROR scheme:")


def test_density_nmax_too_small(capsys):
    code, _, err = run_cli(capsys, "density", "--tournament", "transitive-omega", "--nmax", "1")
    assert code == 2
    assert err.startswith("#ERROR invalid-argument:")


# ---------------------------------------------------------------------------
# optimize


def test_optimize_restricted_patterns_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--horizon", "5000",
        "--window", "1000:5000", "--patterns", "identity,factorial",
    )
    assert code == 0
    assert "pattern=factorial" in out
    assert "min_density=35083/84392" in out
    assert "#RESULT scheme=factorial,min_density=35083/84392,at=1233" in out


def test_optimize_identity_only(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--horizon", "2000",
        "--window", "100:2000", "--patterns", "identity",
    )
    assert code == 0
    assert "min_density=0" in out


def test_optimize_deterministic(capsys):
    args = ("optimize", "--horizon", "8000", "--window", "1000:8000")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "pattern=nested-dip" in first


def test_optimize_bad_window(capsys):
    code, _, err = run_cli(capsys, "optimize", "--horizon", "500", "--window", "900:400")
    assert code == 2
    assert err.startswith("#ERROR invalid-argument:")


def test_optimize_window_argument_shape(capsys):
    with pytest.raises(SystemExit):
        main(["optimize", "--horizon", "500", "--window", "12"])


def test_inversions_scheme_reads_counts_from_its_runs(capsys, monkeypatch):
    from tourlab import counting
    from tourlab.core import FactorialBlock, InjectionSpec

    def refuse(*args):
        raise AssertionError("a catalogue scheme built values or ran the kernel")

    monkeypatch.setattr(InjectionSpec, "values", refuse)
    monkeypatch.setattr(counting, "prior_greater_counts", refuse)
    code, out, _ = run_cli(
        capsys, "inversions", "--injection", "factorial", "--nmax", "200000", "--stride", "500",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 400
    K = FactorialBlock()
    for n, fwd, _, _ in rows[::37]:
        assert int(fwd) == K.forward_pairs_upto(int(n))
