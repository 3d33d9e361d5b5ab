import json
from pathlib import Path

import numpy as np
import pytest

from voliso import VPolytope, write_polytope
from voliso.cli import main
from voliso.shapes import cube, regular_simplex


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    write_polytope(path, cube(2))
    return str(path)


@pytest.fixture()
def square_system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "dim": 2,
        "vectors": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "weights": [0.5, 0.5, 0.5, 0.5],
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJohnCommand:
    def test_cube_decomposition(self, capsys, cube_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, ["john", "--input", cube_file, "--symmetric",
                                  "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert np.allclose(report["decomposition"]["weights"], 0.5, atol=1e-6)
        assert report["residuals"]["frobenius"] <= 1e-8
        assert report["residuals"]["kkt"] <= 1e-8

    def test_triangle_decomposition(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        write_polytope(path, regular_simplex(2))
        code, out, _ = run(capsys, ["john", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["decomposition"]["weights"], 2 / 3, atol=1e-6)
        assert report["residuals"]["barycenter"] <= 1e-8

    def test_vfile_missing_origin_gives_steiner_inellipse(self, capsys, tmp_path):
        # conv{(1,1), (3,1), (1,2)} does not contain the origin; its John
        # ellipsoid is the Steiner inellipse, centred at the centroid with
        # area pi / (3 sqrt 3) times the triangle's area 1
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"dim": 2, "kind": "V",
                                    "rows": [[1, 1], [3, 1], [1, 2]]}))
        code, out, _ = run(capsys, ["john", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        center = np.array(report["ellipsoid"]["center"])
        assert np.allclose(center, [5 / 3, 4 / 3], rtol=0, atol=1e-9)
        assert report["ellipsoid"]["volume"] == pytest.approx(
            np.pi / (3 * np.sqrt(3)), rel=0, abs=1e-9)
        # the John map is reported in the file's coordinates: it sends the
        # centre to the origin
        john_map = report["john_map"]
        assert np.allclose(np.array(john_map["linear"]) @ center + john_map["shift"],
                           0.0, rtol=0, atol=1e-9)

    def test_unbounded_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dim": 2, "kind": "H",
            "rows": [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]}))
        code, _, err = run(capsys, ["john", "--input", str(path)])
        assert code == 2
        assert "unbounded" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["john", "--input", "/nonexistent.json"])
        assert code == 2

    @pytest.mark.parametrize("offset", ["NaN", "Infinity"])
    def test_non_finite_row_exits_2(self, capsys, tmp_path, offset):
        # Python's json reads NaN and Infinity; the row must be named, not
        # crash the solve (NaN) or spin in it (Infinity)
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "kind": "H", "rows": [[1, 0, 1], [0, 1, %s], '
                        '[-1, 0, 1], [0, -1, 1]]}' % offset)
        code, out, err = run(capsys, ["john", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: facet row 1 is not finite")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_vertex_exits_2(self, capsys, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "kind": "V", "rows": [[0, 0], [1, 0], '
                        '[0, %s]]}' % value)
        code, out, err = run(capsys, ["john", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: vertex row 2 is not finite")

    @pytest.mark.parametrize("data, message", [
        ({"dim": [2], "kind": "H", "rows": [[1, 0, 1], [0, 1, 1], [-1, -1, 1]]},
         "polytope dim must be a number, not list"),
        ({"dim": 2.5, "kind": "H", "rows": [[1, 0, 1], [0, 1, 1], [-1, -1, 1]]},
         "polytope dim must be a whole number, not 2.5"),
        ({"dim": 2, "kind": "V", "rows": [[0, 0], [1, "0"], [0, 1]]},
         "polytope rows must hold only numbers"),
        # numpy reads a boolean among numbers as 1 or 0
        ({"dim": 2, "kind": "V", "rows": [[0, 0], [1, False], [0, 1]]},
         "polytope rows must hold only numbers")])
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["john", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("key", ["dim", "kind", "rows"])
    def test_missing_key_exits_2(self, capsys, tmp_path, key):
        data = {"dim": 2, "kind": "H", "rows": [[1, 0, 1], [0, 1, 1], [-1, -1, 1]]}
        del data[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["john", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: polytope has no key {key!r}\n")

    def test_vfile_simplex_gives_steiner_inellipsoid(self, capsys):
        # John's ellipsoid of a simplex is its Steiner inellipsoid: centre
        # the vertex centroid c, B^2 = sum (v_i - c)(v_i - c)^T / (n(n+1));
        # the contacts are the facet normals of the simplex in John position
        path = Path(__file__).parent / "data" / "simplex.json"
        V = np.array(json.loads(path.read_text())["rows"])
        n = V.shape[1]
        c = V.mean(axis=0)
        w, Q = np.linalg.eigh((V - c).T @ (V - c) / (n * (n + 1)))
        B = (Q * np.sqrt(w)) @ Q.T
        normals = VPolytope(np.linalg.solve(B, (V - c).T).T)._equations[:, :-1]
        code, out, _ = run(capsys, ["john", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert np.abs(np.array(report["ellipsoid"]["shape"]) - B).max() <= 1e-11
        assert np.abs(np.array(report["ellipsoid"]["center"]) - c).max() <= 1e-11
        contacts = np.array(report["contact_points"])
        nearest = np.linalg.norm(contacts[:, None] - normals[None], axis=2).argmin(axis=1)
        assert sorted(nearest) == list(range(n + 1))
        assert np.abs(contacts - normals[nearest]).max() <= 1e-11


class TestRevisoCommand:
    def test_small_batch_passes(self, capsys):
        code, out, _ = run(capsys, ["reviso", "--n", "2", "--count", "4",
                                    "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["max_quotient"] <= report["constant"] * (1 + 1e-6)
        assert len(report["bodies"]) == 4

    def test_injected_simplex_attains_constant(self, capsys):
        code, out, _ = run(capsys, ["reviso", "--n", "2", "--count", "1",
                                    "--seed", "1", "--include-simplex"])
        assert code == 0
        report = json.loads(out)
        simplex_row = report["bodies"][0]
        assert simplex_row["body"] == "regular-simplex"
        assert simplex_row["quotient"] == pytest.approx(report["constant"],
                                                        rel=1e-6)

    def test_symmetric_flag(self, capsys):
        code, out, _ = run(capsys, ["reviso", "--n", "2", "--count", "3",
                                    "--seed", "2", "--symmetric"])
        assert code == 0
        report = json.loads(out)
        assert report["constant"] == 4.0

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["reviso", "--n", "2", "--count", "3", "--seed", "5",
                     "--out", str(a)])
        run(capsys, ["reviso", "--n", "2", "--count", "3", "--seed", "5",
                     "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [["--n", "5", "--count", "2"],
                                       ["--n", "6", "--count", "1", "--symmetric"]],
                             ids=["n5", "n6-symmetric"])
    def test_five_and_six_dimensions(self, capsys, flags):
        code, out, _ = run(capsys, ["reviso", *flags, "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_quotient"] <= report["constant"] * (1 + 1e-6)

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exits_2(self, capsys, tmp_path, count):
        path = tmp_path / "report.json"
        code, out, err = run(capsys, ["reviso", "--n", "2", "--count", count,
                                      "--out", str(path)])
        assert code == 2
        assert "--count" in err
        assert out == "" and not path.exists()

    def test_symmetric_batch_rejects_the_simplex(self, capsys):
        # the regular simplex is not symmetric: its quotient exceeds the
        # symmetric bound
        with pytest.raises(SystemExit) as excinfo:
            main(["reviso", "--n", "2", "--count", "1", "--symmetric",
                  "--include-simplex"])
        assert excinfo.value.code == 2
        assert "--symmetric" in capsys.readouterr().err

    def test_violation_exits_1(self, capsys, monkeypatch):
        import voliso.cli as cli

        monkeypatch.setattr(cli, "reverse_isoperimetric_constant",
                            lambda n, symmetric: 1.0)
        code, out, _ = run(capsys, ["reviso", "--n", "2", "--count", "2",
                                    "--seed", "0"])
        assert code == 1
        assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("argv", [
    ["john", "--seed", "1"], ["john", "--samples", "1000"],
    ["reviso", "--n", "2", "--count", "1", "--samples", "1000"]],
    ids=["john-seed", "john-samples", "reviso-samples"])
def test_flag_the_command_does_not_read_exits_2(capsys, cube_file, argv):
    if argv[0] == "john":
        argv = argv + ["--input", cube_file]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestLpCommand:
    def test_canonical_l1(self, capsys, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "p": 1.0,
                                    "basis": [[1, 0], [0, 1]]}))
        code, out, _ = run(capsys, ["lp", "--input", str(path),
                                    "--samples", "100000"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["lewis_residual"] <= 1e-8
        assert report["l1_bound"]["limit"] == pytest.approx(1.31549, abs=1e-5)

    def test_random_subspace(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"m": 5, "n": 2, "p": 1.5,
                                    "basis": rng.standard_normal((5, 2)).tolist()}))
        code, out, _ = run(capsys, ["lp", "--input", str(path),
                                    "--samples", "100000"])
        assert code == 0

    @pytest.mark.parametrize("data, message", [
        ({"m": 2, "n": 2, "p": 1.0}, "subspace has no key 'basis'"),
        ([[1, 0], [0, 1]], "subspace must be a JSON object, not list")])
    def test_malformed_file_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["lp", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("data, message", [
        ({"m": 3, "n": 2, "p": "1", "basis": [[1, 0], [0, 1], [1, 1]]},
         "subspace p must be a number, not str"),
        ({"m": 3, "n": 2, "p": 1.5, "basis": [[1, 0], [0, 1], [1]]},
         "subspace basis must be a rectangular array of numbers"),
        ({"m": 3, "n": 2, "p": 1.5, "basis": [[1, 0], [0, 1], [1, True]]},
         "subspace basis must hold only numbers")])
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["lp", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_basis_row_exits_2(self, capsys, tmp_path, value):
        path = tmp_path / "sub.json"
        path.write_text('{"m": 3, "n": 2, "p": 1.5, '
                        '"basis": [[1, 0], [%s, 1], [1, 1]]}' % value)
        code, out, err = run(capsys, ["lp", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: basis row 1 is not finite")

    def test_one_lewis_solve_per_call(self, capsys, monkeypatch, tmp_path):
        import voliso.cli as cli
        import voliso.lp_spaces as lp_spaces

        calls = []
        original = lp_spaces.lewis_position

        def counted(spec):
            calls.append(spec)
            return original(spec)

        # rebind the name in every module that holds it
        for module in (cli, lp_spaces):
            if getattr(module, "lewis_position", None) is original:
                monkeypatch.setattr(module, "lewis_position", counted)
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"m": 3, "n": 2, "p": 1.5,
                                    "basis": [[1, 0], [0, 1], [1, 1]]}))
        code, _, _ = run(capsys, ["lp", "--input", str(path),
                                  "--samples", "1000"])
        assert code == 0
        assert len(calls) == 1


class TestBlCommand:
    def test_square_gaussians(self, capsys, square_system_file):
        code, out, _ = run(capsys, ["bl", "--input", square_system_file,
                                    "--samples", "100000"])
        assert code == 0
        report = json.loads(out)
        ratio = report["ratio"]
        assert abs(ratio["value"] - 1.0) <= 3 * ratio["std_error"]

    def test_inline_densities(self, capsys, square_system_file):
        densities = json.dumps([{"tag": "indicator", "a": -1.0, "b": 1.0}] * 4)
        code, out, _ = run(capsys, ["bl", "--input", square_system_file,
                                    "--densities", densities,
                                    "--samples", "100000"])
        assert code == 0

    def test_bad_densities_exit_2(self, capsys, square_system_file):
        code, _, err = run(capsys, ["bl", "--input", square_system_file,
                                    "--densities", "/does/not/exist.json"])
        assert code == 2

    @pytest.mark.parametrize("densities, message", [
        ('[{"tag": "indicator"}]', "indicator density has no key 'a'"),
        ('[[1.0]]', "density must be a JSON object, not list")])
    def test_malformed_densities_exit_2(self, capsys, square_system_file,
                                        densities, message):
        code, out, err = run(capsys, ["bl", "--input", square_system_file,
                                      "--densities", densities])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("data, message", [
        ({"dim": 2, "vectors": [[1, 0], [0, 1]]}, "system has no key 'weights'"),
        ([1, 2], "system must be a JSON object, not list")])
    def test_malformed_system_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["bl", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("data, message", [
        ({"dim": 2, "vectors": {"u": [1, 0]}, "weights": [1, 1]},
         "system vectors must hold only numbers"),
        ({"dim": 2, "vectors": [[1, 0], [0, 1]], "weights": [1, None]},
         "system weights must hold only numbers"),
        ({"dim": 2, "vectors": [[1, 0], [0, 1]], "weights": [1, True]},
         "system weights must hold only numbers")])
    def test_wrong_json_type_exits_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["bl", "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("vectors, weights, row", [
        ("[[1, 0], [0, 1]]", "[NaN, 1]", 0),
        ("[[1, 0], [NaN, 1]]", "[1, 1]", 1),
        ("[[1, 0], [0, 1]]", "[1, Infinity]", 1)])
    def test_non_finite_system_row_exits_2(self, capsys, tmp_path, vectors,
                                           weights, row):
        # a NaN used to pass the unit-length and positivity checks and
        # report an all-NaN ratio with the bound-violation code
        path = tmp_path / "system.json"
        path.write_text('{"dim": 2, "vectors": %s, "weights": %s}'
                        % (vectors, weights))
        code, out, err = run(capsys, ["bl", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: system row {row} is not finite")

    @pytest.mark.parametrize("densities, message", [
        ({"tag": "gaussian"}, "densities must be a JSON list, not dict"),
        ([{"tag": "gaussian", "sigma": "1"}] * 4,
         "gaussian density sigma must be a number, not str"),
        ([{"tag": "table", "grid": [0, 1], "values": [[1], 1]}] * 4,
         "table density values must be a rectangular array of numbers"),
        ([{"tag": "table", "grid": [0, True, 2], "values": [1, 1, 1]}] * 4,
         "table density grid must hold only numbers")])
    def test_wrong_density_json_type_exits_2(self, capsys, tmp_path,
                                             square_system_file, densities,
                                             message):
        path = tmp_path / "densities.json"
        path.write_text(json.dumps(densities))
        code, out, err = run(capsys, ["bl", "--input", square_system_file,
                                      "--densities", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestPettyCommand:
    def test_square_report(self, capsys, cube_file):
        code, out, _ = run(capsys, ["petty", "--input", cube_file,
                                    "--samples", "50000"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["petty"]["value"] >= report["petty_ball_minimum"] - \
            3 * report["petty"]["std_error"]
        # the one gate is Petty's: no Monte Carlo surface area is reported
        assert not {"cauchy_surface_area", "exact_surface_area"} & report.keys()

    def test_three_cube_seed_288_exits_0(self, capsys, tmp_path):
        # this call exited 1 by chance while a Monte Carlo Cauchy area,
        # whose expectation is the exact surface area, was part of the gate
        path = tmp_path / "cube3.json"
        write_polytope(path, cube(3))
        code, out, _ = run(capsys, ["petty", "--input", str(path),
                                    "--seed", "288", "--samples", "20000"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_csv_format(self, capsys, cube_file):
        code, out, _ = run(capsys, ["petty", "--input", cube_file,
                                    "--samples", "20000", "--format", "csv"])
        assert code == 0
        assert out.startswith("key,value")
        assert "petty.value" in out

    def test_config_embedded(self, capsys, cube_file):
        code, out, _ = run(capsys, ["petty", "--input", cube_file,
                                    "--samples", "20000", "--seed", "11"])
        report = json.loads(out)
        assert report["config"]["seed"] == 11
        assert report["config"]["samples"] == 20000


@pytest.mark.parametrize("command, flags, keys", [
    ("john", ["--symmetric"], {"command", "input", "symmetric"}),
    ("reviso", ["--n", "2", "--count", "1"],
     {"command", "n", "count", "seed", "symmetric", "include_simplex",
      "relative_tolerance"}),
    ("lp", [], {"command", "input", "n", "m", "p", "seed", "samples"}),
    ("bl", [], {"command", "input", "seed", "samples", "densities"}),
    ("petty", [], {"command", "input", "seed", "samples"}),
])
def test_config_keys_of_every_command(capsys, cube_file, square_system_file,
                                      tmp_path, command, flags, keys):
    subspace = tmp_path / "sub.json"
    subspace.write_text(json.dumps({"m": 2, "n": 2, "p": 1.0,
                                    "basis": [[1, 0], [0, 1]]}))
    inputs = {"john": cube_file, "lp": str(subspace),
              "bl": square_system_file, "petty": cube_file}
    argv = [command] + flags
    if command in inputs:
        argv += ["--input", inputs[command]]
    if command in ("lp", "bl", "petty"):
        argv += ["--samples", "2000"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == keys
    assert config["command"] == command


@pytest.mark.parametrize("command, flags", [
    ("john", []), ("petty", ["--samples", "2000"])])
def test_unwritable_out_exits_2(capsys, cube_file, tmp_path, command, flags):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, [command, "--input", cube_file,
                                  "--out", str(out_path)] + flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.parent.exists()


class TestParserReuse:
    def test_one_parser_per_process(self, capsys, cube_file):
        import voliso.cli as cli

        cli.build_parser.cache_clear()
        for _ in range(2):
            code, _, _ = run(capsys, ["john", "--input", cube_file])
            assert code == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_failed_call_leaves_no_trace(self, capsys, cube_file):
        import voliso.cli as cli

        argv = ["john", "--input", cube_file, "--symmetric"]
        cli.build_parser.cache_clear()
        alone = run(capsys, argv)
        # an error inside the command, then one of the parser itself
        assert run(capsys, ["john", "--input", "/does/not/exist.json",
                            "--symmetric"])[0] == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["reviso", "--n", "7", "--count", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == alone
        assert alone[0] == 0
