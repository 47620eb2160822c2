"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import time
import tracemalloc

import pytest

from graphkt import cli
from graphkt.catalog import catalog_path
from graphkt.intlinalg import IntMatrix, SnfResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def oneloop(tmp_path):
    p = tmp_path / "oneloop.graph"
    p.write_text("edge v v\n")
    return str(p)


@pytest.fixture
def o2():
    return str(catalog_path("o2"))


def test_info(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("edge w w\nedge v w inf\n")
    code, out, _ = run(capsys, "info", str(p))
    assert code == 0
    assert out == (
        "vertices: 2\n"
        "singular set: v\n"
        "regular count: 1\n"
        "singular count: 1\n"
        "row-finite: no\n"
        "condition (L): fails; witness: w\n"
    )


def test_ktheory_text(capsys, o2):
    code, out, _ = run(capsys, "ktheory", o2)
    assert code == 0
    assert out == "K0 = 0\nK1 = 0\n"


def test_ktheory_json_matches_fixed_schema(capsys):
    code, out, _ = run(capsys, "ktheory", str(catalog_path("sink2")), "--json")
    assert code == 0
    assert out.strip() == '{"k0":{"rank":2,"torsion":[]},"k1":{"rank":0,"torsion":[]}}'


def test_ext_gate_and_force(capsys, oneloop):
    code, out, _ = run(capsys, "ext", oneloop)
    assert code == 2
    assert "witness cycle: v" in out

    code, out, _ = run(capsys, "ext", oneloop, "--force")
    assert code == 0
    assert out == "Ext = Z (formula value; theorem hypothesis unmet)\n"


def test_ext_json_failure_payload(capsys, oneloop):
    code, out, _ = run(capsys, "ext", oneloop, "--json")
    assert code == 2
    assert json.loads(out) == {"error": "condition (L) fails", "witness": ["v"]}


def test_ext_success(capsys):
    code, out, _ = run(capsys, "ext", str(catalog_path("o3")))
    assert code == 0
    assert out == "Ext = Z/2\n"


def test_check_l_exit_codes(capsys, oneloop, o2):
    code, out, _ = run(capsys, "check-l", o2)
    assert code == 0 and out == "condition (L): holds\n"
    code, out, _ = run(capsys, "check-l", oneloop)
    assert code == 2 and out == "condition (L): fails; witness: v\n"


def test_desingularize_to_stdout_and_file(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text("vertex a\n")
    code, out, _ = run(capsys, "desingularize", str(src), "--truncate", "2")
    assert code == 0
    assert out == (
        "# directed multigraph\n"
        "vertex a\nvertex a$1\nvertex a$2\n"
        "edge a a$1\nedge a$1 a$2\n"
    )
    dst = tmp_path / "out.graph"
    code, _, _ = run(capsys, "desingularize", str(src), "--truncate", "2",
                     "-o", str(dst))
    assert code == 0
    assert dst.read_text() == out


def test_desingularize_order_flag(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text("edge v a inf\nedge v b inf\n")
    code, out, _ = run(capsys, "desingularize", str(src), "--truncate", "2",
                       "--order", "v:b,a")
    assert code == 0
    # with b first, position-0 re-emission from v goes to b, not a
    assert "\nedge v b\n" in out

    code, _, err = run(capsys, "desingularize", str(src), "--truncate", "2",
                       "--order", "bogus")
    assert code == 1 and "--order" in err


def test_desingularize_fresh_name_clash(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text("vertex a\nvertex a$1\n")
    code, out, _ = run(capsys, "desingularize", str(src), "--truncate", "2")
    assert code == 2
    assert out == "fresh tail vertex name already in use: 'a$1'\n"


def test_desingularize_domain_error(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text("vertex a\nsingular a\n")
    code, out, _ = run(capsys, "desingularize", str(src), "--truncate", "2")
    assert code == 2
    assert "declared-singular" in out


def test_desingularize_rejects_length_below_one(capsys, tmp_path):
    src = tmp_path / "s.graph"
    src.write_text("vertex a\n")
    for n in ("0", "-1"):
        code, out, err = run(capsys, "desingularize", str(src), "--truncate", n)
        assert code == 1 and out == ""
        assert "tail_length must be >= 1" in err


def test_size_flags_are_capped(capsys, tmp_path):
    cap = cli._SIZE_CAP
    out = tmp_path / "tail.graph"
    code, _, _ = run(capsys, "desingularize", str(catalog_path("sink1")),
                     "--truncate", str(cap), "-o", str(out))
    assert code == 0
    assert out.read_text().count("vertex ") == cap + 1
    for argv in (["desingularize", str(catalog_path("sink1")), "--truncate"],
                 ["harness", "--max-vertices"],
                 ["experiment", "ea", "--max-n"]):
        code, stdout, err = run(capsys, *argv, str(cap + 1))
        assert code == 1 and stdout == ""
        assert f"{argv[-1]} must be at most {cap}" in err


def test_desingularize_bounds_total_tail_length(capsys, tmp_path):
    # one loop vertex with an edge to b, and five sinks b..f
    src = tmp_path / "sinks.graph"
    src.write_text("".join(f"vertex {v}\n" for v in "abcdef") + "edge a a\nedge a b\n")
    code, stdout, err = run(capsys, "desingularize", str(src), "--truncate", "401")
    assert code == 1 and stdout == ""
    assert "--truncate 401 on 5 singular vertices adds 2005 vertices" in err
    code, out, _ = run(capsys, "desingularize", str(src), "--truncate", "400")
    assert code == 0
    assert out.count("vertex ") == 6 + 5 * 400


def test_snf_size_is_capped(capsys, tmp_path):
    cap = cli._SIZE_CAP
    p = tmp_path / "m.txt"
    for head in (f"0 {cap + 1}", f"{cap + 1} 0"):
        p.write_text(head + "\n")
        start = time.perf_counter()
        code, stdout, err = run(capsys, "snf", str(p))
        assert time.perf_counter() - start < 2.0
        assert code == 1 and stdout == ""
        assert str(cap + 1) in err
    p.write_text("0 3\n")
    code, out, _ = run(capsys, "snf", str(p))
    assert code == 0
    assert out == "rows: 0\ncols: 3\nrank: 0\ndiagonal: (empty)\n"


def test_snf_cap_is_checked_before_the_matrix_is_built(capsys, tmp_path):
    # An R x 0 file needs no row lines, so its header alone would ask for
    # one row per declared row if the matrix were built before the cap check.
    cap = cli._SIZE_CAP
    p = tmp_path / "m.txt"
    p.write_text("1000000000 0\n")
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, "snf", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and stdout == ""
    assert f"matrix must be at most {cap} x {cap}, got 1000000000 x 0" in err
    assert peak < 1_000_000


def test_snf_zero_columns(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("3 0\n")
    code, out, _ = run(capsys, "snf", str(p))
    assert code == 0
    assert out == "rows: 3\ncols: 0\nrank: 0\ndiagonal: (empty)\n"
    code, out, _ = run(capsys, "snf", str(p), "--json")
    assert code == 0
    assert out.strip() == '{"rows":3,"cols":0,"rank":0,"diagonal":[]}'


def test_snf_text_and_json(capsys, tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n2 4\n6 8\n")
    code, out, _ = run(capsys, "snf", str(p))
    assert code == 0
    assert out == "rows: 2\ncols: 2\nrank: 2\ndiagonal: 2 4\n"
    code, out, _ = run(capsys, "snf", str(p), "--json")
    assert code == 0
    assert out.strip() == '{"rows":2,"cols":2,"rank":2,"diagonal":[2,4]}'


# Every case but the first and the last keeps U @ M @ V == S and breaks
# another certificate: a unimodular transform, the divisor chain, the
# diagonal shape of S or the bound on the rank. The last gives U @ M @ V
# the right diagonal but S an entry off it.
@pytest.mark.parametrize("m, u, s, v, rank", [
    ([[5]], [[1]], [[0]], [[1]], 0),
    ([[1]], [[2]], [[2]], [[1]], 1),
    ([[1]], [[1]], [[2]], [[2]], 1),
    ([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 1]], 2),
    ([[-1]], [[1]], [[-1]], [[1]], 1),
    ([[0]], [[1]], [[0]], [[1]], 1),
    ([[2, 1], [0, 2]], [[1, 0], [0, 1]], [[2, 1], [0, 2]], [[1, 0], [0, 1]], 2),
    ([[1]], [[1]], [[1]], [[1]], 2),
    ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]], 2),
], ids=["wrong-product", "u-not-unimodular", "v-not-unimodular", "no-divisor-chain",
        "negative-factor", "zero-within-rank", "not-diagonal", "rank-above-side",
        "s-off-diagonal"])
def test_snf_verification_failure_is_exit_3(capsys, tmp_path, monkeypatch, m, u, s, v, rank):
    res = SnfResult(*map(IntMatrix.from_rows, (u, s, v)), rank)
    monkeypatch.setattr(cli, "snf", lambda _m: res)
    p = tmp_path / "m.txt"
    p.write_text(f"{len(m)} {len(m[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in m))
    code, out, err = run(capsys, "snf", str(p))
    assert (code, out) == (3, "")
    assert "verification failed" in err


def test_experiment_ea(capsys):
    code, out, _ = run(capsys, "experiment", "ea", "--max-n", "7")
    assert code == 0
    assert "   5  Z^2" in out
    assert "K0 = 0, K1 = 0" in out
    assert "K0 = 0, K1 = Z" in out
    code, out, _ = run(capsys, "experiment", "ea", "--max-n", "7", "--json")
    payload = json.loads(out)
    assert payload["truncations"][0] == {
        "n": 5, "k0": {"rank": 2, "torsion": []}, "k1": {"rank": 0, "torsion": []}
    }
    assert payload["limits"]["exel_laca"]["k1"] == {"rank": 1, "torsion": []}

    code, _, err = run(capsys, "experiment", "ea", "--max-n", "3")
    assert code == 1


def test_harness_small_run(capsys):
    code, out, _ = run(capsys, "harness", "--count", "15", "--seed", "9")
    assert code == 0
    assert "catalog: ok" in out
    assert "result: PASS" in out


def test_harness_count_must_be_positive(capsys):
    code, out, err = run(capsys, "harness", "--count", "0")
    assert code == 1 and out == ""
    assert "count must be at least 1" in err
    code, out, _ = run(capsys, "harness", "--count", "1")
    assert code == 0
    assert "pass=1" in out and "result: PASS" in out


def test_harness_json(capsys):
    code, out, _ = run(capsys, "harness", "--count", "10", "--seed", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["catalog"]["ok"] is True
    assert payload["properties"]["P1"]["pass"] == 10


@pytest.mark.parametrize("argv, digest", [
    (["harness", "--count", "300", "--max-vertices", "16", "--seed", "1"],
     "e03925a448016594aa916dc02617856bc1b3366a5663ad22f7153a0d40d49066"),
    (["harness", "--count", "200", "--json"],
     "4ebf89d0278210cdc04976715c0901a6394e32cbce3183fb19145686921db6a7"),
])
def test_harness_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_errors_are_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "nonsense")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "ktheory", str(tmp_path / "missing.graph"))
    assert code == 1
    bad = tmp_path / "bad.graph"
    bad.write_text("frob\n")
    code, _, err = run(capsys, "ktheory", str(bad))
    assert code == 1 and "line 1" in err
    code, _, err = run(capsys, "desingularize", str(bad))
    assert code == 1  # missing --truncate


def test_output_is_byte_deterministic(capsys):
    path = str(catalog_path("ea5"))
    first = run(capsys, "ktheory", path, "--json")
    second = run(capsys, "ktheory", path, "--json")
    assert first == second
