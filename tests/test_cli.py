"""CLI behavior: output shapes, exit codes, determinism, error mapping."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tourlab.cli import main
from tourlab.core import interleaved_forest
from tourlab.density import tournament_from_name
from tourlab.embedding import AlwaysInfiniteOracle, infiniteness_oracle_for


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
    # also for a subcommand that takes no budget; a named budget wins
    code, out, err = run_cli(capsys, "density", "--tournament", "transitive-omega", "--nmax", "5")
    assert code == 2 and out == "" and err.startswith("#ERROR invalid-argument:")
    code, _, err = run_cli(capsys, "analyze", "anti-path", "--budget", "50")
    assert code == 0 and err == ""


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


def test_embed_one_member_cell_failure_keeps_the_closure_text(capsys):
    # C_1 = {0} of the forward path has an infinite forward closure, so
    # the search that grows C_2 from it fails with gamma's own text
    code, out, err = run_cli(
        capsys, "embed", "--graph", "forward-path",
        "--tournament", "transitive-omega", "--horizon", "5",
    )
    assert (code, out) == (2, "")
    assert err == "#ERROR budget-exhausted: gamma+(0) exceeded budget 10000\n"


def test_embed_always_infinite_oracle(capsys):
    # random:3 has no exact oracle, so the scanning one serves it
    K = tournament_from_name("random:3")
    assert isinstance(infiniteness_oracle_for(K), AlwaysInfiniteOracle)
    code, out, _ = run_cli(
        capsys, "embed", "--graph", "anti-path",
        "--tournament", "random:3", "--horizon", "10",
    )
    assert code == 0
    assert "valid=true" in out


# sha256 of stdout, unchanged since the engine re-decided the signed prefix
# and scanned from vertex 0 on every step; they pin the machine rotation and
# the pools the oracles hand out
FROZEN_EMBEDS = [
    ("interleaved-forest", "random:5",
     "40092f825dc9dc35c05a8d24fd0a4d7182004b71031d69a795987cdda4f692c3"),
    ("out-stars", "random:5",
     "af1db4dfc5d03e854652367bddcf452f1c4a5fa3ea040bac8d05cc8e2d74a994"),
    ("interleaved-forest", "split-transitive",
     "29a254c2768fb95f3b4fae08994e3c88db9a6e91beab132a1f4d46426b2891e7"),
    ("interleaved-forest", "transitive-omega",
     "070a09e7b0cb8ac3c2a4fc1ce4aa7fc23d533deeb313b6e3d274a86fe4e0d0ca"),
    # value-order hosts: pools read off the run layout, digests unchanged
    # since each index was tested against the anchors' values in turn
    ("interleaved-forest", "factorial-block",
     "264db4503bc09cebc640ca4e6e8ab46c4f74559631b4e0c9cc6bf2f0b0de78d1"),
    ("interleaved-forest", "transitive-omega-star",
     "31f76727bccc1cd934c0a69d6cc97dfc3769c9cce4ab196ed3f145f54cd4a81b"),
    ("anti-path", "transitive-omega-star",
     "710613a11fb45fe2e8a4752a774188133897ec4055a4dda337e49807cb907057"),
]


# sha256 of stdout, unchanged since each row built its density as a
# Fraction and the rows were summed one forward row at a time
FROZEN_PROFILES = [
    (["density", "--tournament", "random:288545019", "--nmax", "3000", "--stride", "7"],
     "0fc836b380fbe5265b6699bfda226ecaea72c6bbc7f9a7fe53ef061d042ac96d"),
    (["density", "--tournament", "factorial-block", "--nmax", "20000"],
     "c63263dd1be2439ef43613ab61e2b4cf326e1769a4113696bd47e791662317da"),
    # every density renders as 1
    (["density", "--tournament", "transitive-omega", "--nmax", "50"],
     "1568d00b9f7b365529b776c83e4f646f88e1a2eed4bd3591376b303c1bc19600"),
    # every density renders as 0
    (["density", "--tournament", "transitive-omega-star", "--nmax", "50", "--stride", "9"],
     "93def83919e7f57aa70da2cd4487c0480f0673f21deccaecb51df64c009ea04c"),
    # a single row
    (["density", "--tournament", "random:5", "--nmax", "5", "--stride", "50"],
     "06afadce61b2dddc6e397cafc8f50bc60b7e2ee7d17854e348fca968b83e518d"),
    (["inversions", "--injection", "{injection}", "--nmax", "40", "--stride", "3"],
     "3c64507375aaa92e14bd4c85219b906c86d400df852f69e58cae52ac73d60d11"),
]


@pytest.mark.parametrize("args, digest", FROZEN_PROFILES, ids=[
    "random", "factorial-block", "all-one", "all-zero", "one-row", "injection-file"])
def test_profile_output_frozen(capsys, tmp_path, args, digest):
    injection = tmp_path / "injection.txt"
    injection.write_text("tail factorial\n3 1 0\n1 1 7\n9 2 2\n")
    code, out, err = run_cli(capsys, *(a.format(injection=injection) for a in args))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("graph, tournament, digest", FROZEN_EMBEDS)
def test_embed_output_frozen(capsys, graph, tournament, digest):
    code, out, _ = run_cli(
        capsys, "embed", "--graph", graph, "--tournament", tournament,
        "--horizon", "2000",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout: anti-path's anchors climb one factorial block per step,
# each chunk laid along its first members in value order, and a file
# holding only `tail factorial` is the factorial layout
FROZEN_LAYOUT_EMBEDS = [
    (["--graph", "anti-path", "--tournament", "factorial-block", "--horizon", "500"],
     "b0f1e176e5b75df47bd76de339b1af171342464c223c6bc361fdeb03d3f599d8"),
    (["--graph", "interleaved-forest", "--tournament", "injection:{tail}", "--horizon", "2000"],
     "264db4503bc09cebc640ca4e6e8ab46c4f74559631b4e0c9cc6bf2f0b0de78d1"),
]


@pytest.mark.parametrize("args, digest", FROZEN_LAYOUT_EMBEDS,
                         ids=["anti-path-factorial-block", "forest-factorial-tail-file"])
def test_layout_embed_output_frozen(capsys, tmp_path, args, digest):
    tail = tmp_path / "tail.inj"
    tail.write_text("tail factorial\n")
    code, out, err = run_cli(capsys, "embed", *(a.format(tail=tail) for a in args))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _factorial_block(v):
    """Index of the block holding v: blocks end at 1!, 2!, 3!, ..."""
    k, end = 0, 1
    while v >= end:
        k += 1
        end *= k + 1
    return k


def test_embed_into_factorial_block_covers_the_horizon(capsys):
    code, out, err = run_cli(
        capsys, "embed", "--graph", "interleaved-forest",
        "--tournament", "factorial-block", "--horizon", "1000",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1].startswith("#RESULT covered=1000,valid=true,")
    phi = dict(tuple(map(int, l.split())) for l in lines if l[0].isdigit())
    assert len(set(phi.values())) == len(phi)
    assert set(range(1000)) <= set(phi.values())
    # a -> b exactly when a < b inside one block, or a > b across blocks
    G = interleaved_forest()
    edges = 0
    for g, a in phi.items():
        for w in G.out_neighbors(g):
            if w in phi:
                b = phi[w]
                assert (_factorial_block(a) == _factorial_block(b)) == (a < b)
                edges += 1
    assert edges > 0


def test_embed_failing_to_render_prints_nothing(capsys):
    # anti-path climbs one factorial block per step, so its images near
    # horizon 500 run to about 1,100 digits, past a 640-digit cap on
    # int-to-str conversion; the report must fail whole, not halfway
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(
            capsys, "embed", "--graph", "anti-path",
            "--tournament", "factorial-block", "--horizon", "500",
        )
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2 and out == ""
    assert err.startswith("#ERROR invalid-argument:") and err.count("\n") == 1


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


def test_inversions_file_index_given_twice(capsys, tmp_path):
    p = tmp_path / "twice.txt"
    p.write_text("5 1 1\n5 2 2\n")
    code, out, err = run_cli(capsys, "inversions", "--injection", str(p), "--nmax", "8")
    assert code == 2 and out == ""
    assert err == f"#ERROR graph-format: {p}:2: index 5 given twice\n"


def test_inversions_file_clash_is_reported_once_reached(capsys, tmp_path):
    # index 1 takes the value that the identity tail gives index 6
    p = tmp_path / "clash.inj"
    p.write_text("tail identity\n1 0 5\n")
    code, out, err = run_cli(capsys, "inversions", "--injection", str(p), "--nmax", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "#RESULT rows=4,min_density=2/5"
    code, out, err = run_cli(capsys, "inversions", "--injection", str(p), "--nmax", "6")
    assert code == 2 and out == ""
    assert err == (
        "#ERROR malformed-injection: indices 0 and 5 share the value "
        "OrdinalValue(major=0, minor=5)\n"
    )


def test_inversions_bad_scheme(capsys):
    code, _, err = run_cli(capsys, "inversions", "--injection", "bogus", "--nmax", "10")
    assert code == 2
    assert err.startswith("#ERROR graph-format:")


# ---------------------------------------------------------------------------
# one host grammar for --tournament and --injection


@pytest.mark.parametrize(
    "first, second",
    [
        (["density", "--tournament", "factorial", "--nmax", "3000", "--stride", "7"],
         ["density", "--tournament", "factorial-block", "--nmax", "3000", "--stride", "7"]),
        (["embed", "--graph", "interleaved-forest", "--tournament", "identity",
          "--horizon", "300"],
         ["embed", "--graph", "interleaved-forest", "--tournament", "transitive-omega-star",
          "--horizon", "300"]),
        (["inversions", "--injection", "factorial-block", "--nmax", "3000", "--stride", "7"],
         ["inversions", "--injection", "factorial", "--nmax", "3000", "--stride", "7"]),
        (["inversions", "--injection", "injection:{file}", "--nmax", "40", "--stride", "3"],
         ["inversions", "--injection", "{file}", "--nmax", "40", "--stride", "3"]),
    ],
    ids=["density-factorial", "embed-identity", "inversions-factorial-block",
         "inversions-injection-prefix"],
)
def test_twin_hosts_print_the_same_bytes(capsys, tmp_path, first, second):
    # a catalogue scheme and the named layout host it equals are one
    # tournament, and a file is the same host with or without its prefix
    f = tmp_path / "injection.txt"
    f.write_text("tail factorial\n3 1 0\n1 1 7\n9 2 2\n")
    runs = [run_cli(capsys, *(a.format(file=f) for a in argv)) for argv in (first, second)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0 and err == "" and "#RESULT " in out


@pytest.mark.parametrize("host", ["random:2", "transitive-omega"])
def test_inversions_refuses_a_host_no_injection_induces(capsys, host):
    code, out, err = run_cli(capsys, "inversions", "--injection", host, "--nmax", "5")
    assert (code, out) == (2, "")
    assert err == f"#ERROR scheme: {host!r} is not an injection host\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--graph", "anti-path", "--tournament", "bogus", "--horizon", "5"],
        ["density", "--tournament", "bogus", "--nmax", "5"],
        ["inversions", "--injection", "bogus", "--nmax", "5"],
    ],
    ids=["embed", "density", "inversions"],
)
def test_unknown_host_is_one_error_under_every_subcommand(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "#ERROR graph-format: unknown tournament family 'bogus'\n"


@pytest.mark.parametrize(
    "arg, key",
    [
        ("single-high:q=0.1", "q"),
        ("paired-high-low:W0=7", "W0"),
        ("factorial:L0=5,r=9", "L0"),
        ("identity:q=0.5", "q"),
    ],
)
def test_inversions_rejects_a_parameter_the_pattern_does_not_take(capsys, arg, key):
    # a parameter is refused, not ignored: the run would print the bare
    # pattern's profile under a name that claims another scheme
    code, out, err = run_cli(
        capsys, "inversions", "--injection", arg, "--nmax", "300", "--stride", "100"
    )
    assert (code, out) == (2, "")
    assert err.startswith("#ERROR scheme:") and repr(key) in err


@pytest.mark.parametrize(
    "arg, key",
    [
        ("single-high:r=abc", "r"),
        ("single-high:L0=2.5", "L0"),
        ("nested-dip:W0=x", "W0"),
        ("single-high:r=inf", "r"),
        ("nested-dip:r=inf", "r"),
    ],
)
def test_inversions_rejects_a_parameter_value_that_does_not_parse(capsys, arg, key):
    # text that does not convert to the parameter's type, or an infinite
    # ratio, is a scheme error naming the parameter
    code, out, err = run_cli(capsys, "inversions", "--injection", arg, "--nmax", "10")
    assert (code, out) == (2, "")
    assert err.startswith("#ERROR scheme:") and f"{key}=" in err


@pytest.mark.parametrize(
    "arg, key", [("single-high:r=2,r=3", "r"), ("single-high:L0=8,L0=64", "L0")]
)
def test_inversions_rejects_a_repeated_parameter(capsys, arg, key):
    # the last value does not silently win, as an index given twice in an
    # injection file does not
    code, out, err = run_cli(
        capsys, "inversions", "--injection", arg, "--nmax", "300", "--stride", "100"
    )
    assert (code, out) == (2, "")
    assert err.startswith("#ERROR scheme:") and repr(key) in err


def test_density_nmax_too_small(capsys):
    code, _, err = run_cli(capsys, "density", "--tournament", "transitive-omega", "--nmax", "1")
    assert code == 2
    assert err.startswith("#ERROR invalid-argument:")


def test_reader_closing_stdout_early_ends_quietly():
    # the reader takes the header and closes the pipe while the CSV is
    # still being written: exit status 0, and nothing on stderr, not even
    # from the flush at interpreter exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "tourlab.cli", "density",
         "--tournament", "factorial-block", "--nmax", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"n,forward_pairs,total_pairs,density\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_other_os_errors_stay_io_errors(capsys, tmp_path):
    # a directory given as the injection file cannot be read
    code, out, err = run_cli(capsys, "inversions", "--injection", str(tmp_path), "--nmax", "5")
    assert (code, out) == (2, "")
    assert err.startswith("#ERROR io: ")


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
    from tourlab.core import InjectionSpec

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
    # inversions sit inside blocks: sum C(w, 2) over the block widths below n
    for n, fwd, _, _ in rows[::37]:
        n, want, lo, k = int(n), 0, 0, 1
        while lo < n:
            w = min(math.factorial(k), n) - lo
            want += w * (w - 1) // 2
            lo, k = math.factorial(k), k + 1
        assert int(fwd) == want
