import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from posettop import cli, semigroups
from posettop.cli import main
from posettop.posets import poset_from_json, poset_to_json

from test_cohen_macaulay import wide_poset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFamilies:
    def test_boolean_roundtrip(self, capsys, tmp_path):
        code, out = run_cli(capsys, "family", "boolean", "--n", "3")
        assert code == 0
        P = poset_from_json(out)
        assert len(P) == 8

    def test_chain(self, capsys):
        code, out = run_cli(capsys, "family", "chain", "--n", "4")
        assert code == 0
        assert len(poset_from_json(out)) == 4

    def test_fiber_ideal_defaults_to_full_alphabet(self, capsys):
        code, out = run_cli(capsys, "family", "fiber-ideal", "--n", "3", "--i", "2")
        assert code == 0
        assert len(poset_from_json(out)) == 13

    def test_fiber_ideal_empty_letter_set_is_a_usage_error(self, capsys):
        code = main(["family", "fiber-ideal", "--n", "3", "--i", "2", "--letters", ","])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "nonempty" in captured.err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _ = run_cli(capsys, "-o", str(target), "family", "subword", "--n", "3")
        assert code == 0
        assert len(poset_from_json(target.read_text())) == 15


class TestConstruct:
    def test_product(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        run_cli(capsys, "-o", str(a), "family", "chain", "--n", "2")
        code, out = run_cli(capsys, "construct", "product", str(a), str(a))
        assert code == 0
        assert len(poset_from_json(out)) == 4

    def test_segre_with_default_rank_maps(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "2")
        code, out = run_cli(capsys, "construct", "segre", str(b), str(b))
        assert code == 0
        assert len(poset_from_json(out)) == 6

    def test_segre_with_explicit_map(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        c = tmp_path / "c.json"
        run_cli(capsys, "-o", str(c), "family", "chain", "--n", "2")
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"values": {"0": 1, "1": 2}}))
        code, out = run_cli(capsys, "construct", "segre", str(b), str(c),
                            "--g-map", str(g))
        assert code == 0
        assert len(poset_from_json(out)) == 6  # middle two levels of B3

    def test_rees(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "chain", "--n", "3")
        code, out = run_cli(capsys, "construct", "rees", str(b), str(b))
        assert code == 0
        # pairs (i, j) with i >= j in a 3-chain
        assert len(poset_from_json(out)) == 6

    def test_rank_select(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        code, out = run_cli(capsys, "construct", "rank-select", str(b),
                            "--ranks", "1,2")
        assert code == 0
        assert len(poset_from_json(out)) == 6


class TestComplexAndHomology:
    def test_order_complex_and_homology(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "construct", "rank-select",
                *self._boolean3(capsys, tmp_path), "--ranks", "1,2")
        k = tmp_path / "k.json"
        code, _ = run_cli(capsys, "-o", str(k), "complex", "order-complex", str(b))
        assert code == 0
        code, out = run_cli(capsys, "homology", str(k), "--coefficients", "z")
        assert code == 0
        data = json.loads(out)
        assert data == {"coefficients": "Z", "dims": {"1": {"betti": 1, "torsion": []}}}

    def _boolean3(self, capsys, tmp_path):
        b = tmp_path / "b3.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        return [str(b)]

    def test_subdivision(self, capsys, tmp_path):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b"], "facets": [["a", "b"]]}')
        code, out = run_cli(capsys, "complex", "subdivision", str(k))
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 3
        assert len(data["facets"]) == 2

    def test_homology_field_selector(self, capsys, tmp_path):
        k = tmp_path / "k.json"
        k.write_text(json.dumps({
            "vertices": ["1", "2", "3", "4", "5", "6"],
            "facets": [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "5"],
                       ["1", "4", "6"], ["1", "5", "6"], ["2", "3", "6"],
                       ["2", "4", "5"], ["2", "5", "6"], ["3", "4", "5"],
                       ["3", "4", "6"]]}))
        code, out = run_cli(capsys, "homology", str(k))
        assert json.loads(out)["dims"] == {"1": {"betti": 0, "torsion": [2]}}
        code, spherical = run_cli(capsys, "homology", str(k), "--coefficients", "z-spherical")
        assert code == 0 and spherical == out
        code, out = run_cli(capsys, "homology", str(k), "--coefficients", "gf:2")
        assert json.loads(out)["dims"] == {"1": {"betti": 1, "torsion": []},
                                           "2": {"betti": 1, "torsion": []}}

    @pytest.mark.parametrize("family, args", [
        ("fiber-ideal", ("--n", "5", "--i", "3")),
        ("rees-deranged", ("--n", "5")),
    ])
    def test_poset_file_matches_the_order_complex_route(self, capsys, tmp_path, family, args):
        # a poset file is answered through its order complex, with the
        # JSON the explicit complex of its maximal chains gets
        p, k = tmp_path / "p.json", tmp_path / "k.json"
        run_cli(capsys, "-o", str(p), "family", family, *args)
        run_cli(capsys, "-o", str(k), "complex", "order-complex", str(p))
        for coefficients in ("z", "gf:2"):
            code, direct = run_cli(capsys, "homology", str(p), "--coefficients", coefficients)
            assert code == 0
            code, explicit = run_cli(capsys, "homology", str(k), "--coefficients", coefficients)
            assert code == 0 and direct == explicit
        assert json.loads(direct)["dims"]

    @pytest.mark.parametrize("data", [
        {"elements": ["a"]},
        {"facets": [["a"]]},
        {"elements": ["a"], "covers": 5},
        [["a", "b"]],
        "poset",
    ], ids=["no-covers", "no-vertices", "covers-int", "list", "string"])
    def test_homology_refuses_other_json(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["homology", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: ")


class TestCM:
    def test_cm_verdict_exit_codes(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        code, out = run_cli(capsys, "cm", str(b), "--field", "q")
        assert code == 0
        assert "Cohen-Macaulay over Q" in out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "elements": ["a1", "a2", "b1", "b2"],
            "covers": [["a1", "a2"], ["b1", "b2"]]}))
        code, out = run_cli(capsys, "cm", str(bad), "--field", "q")
        assert code == 1
        assert "not Cohen-Macaulay" in out

    def test_cm_json_format(self, capsys, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "2")
        code, out = run_cli(capsys, "cm", str(b), "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_composite_field_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cm", "--field", "gf:4"])
        assert exc.value.code == 2
        assert "argument --field: 4 is not prime" in capsys.readouterr().err

    def test_intervals_past_isomorphism_limit(self, capsys, tmp_path):
        wide = tmp_path / "wide.json"
        wide.write_text(poset_to_json(wide_poset(600)))
        code, out = run_cli(capsys, "cm", str(wide), "--field", "q")
        assert code == 0
        assert "Cohen-Macaulay over Q" in out


class TestSemigroup:
    def test_koszul_test_pipeline(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        code, _ = run_cli(capsys, "-o", str(s), "semigroup", "natural", "--d", "2")
        assert code == 0
        code, out = run_cli(capsys, "semigroup", "koszul-test", str(s),
                            "--max-rank", "3", "--field", "q")
        assert code == 0
        assert "consistent with Koszul up to rank 3" in out

    @pytest.mark.parametrize("rank", ["1", "0"])
    def test_rank_bound_below_two_is_a_usage_error(self, capsys, rank):
        # the library needs max_rank >= 2; the usage error names that bound
        with pytest.raises(SystemExit) as exc:
            main(["semigroup", "koszul-test", "--max-rank", rank])
        assert exc.value.code == 2
        assert "argument --max-rank: must be at least 2" in capsys.readouterr().err

    def test_interval_emission(self, capsys, tmp_path):
        s = tmp_path / "s.json"
        run_cli(capsys, "-o", str(s), "semigroup", "natural", "--d", "2")
        code, out = run_cli(capsys, "semigroup", "interval", str(s),
                            "--element", "1,1")
        assert code == 0
        assert len(poset_from_json(out)) == 4

    @pytest.mark.parametrize("dim", [3, None, "2"], ids=["mismatched", "missing", "string"])
    def test_bad_dim_is_exit_2(self, capsys, tmp_path, dim):
        data = {"generators": [[1, 0], [0, 1]], "weight": [1, 1], "scale": 1}
        if dim is not None:
            data["dim"] = dim
        s = tmp_path / "s.json"
        s.write_text(json.dumps(data))
        code = main(["semigroup", "koszul-test", str(s), "--max-rank", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and '"dim"' in captured.err

    def test_veronese_family(self, capsys):
        code, out = run_cli(capsys, "semigroup", "veronese-punctured", "--d", "3")
        assert code == 0
        assert len(json.loads(out)["generators"]) == 9


class TestEnumerate:
    def test_text_and_json(self, capsys):
        code, out = run_cli(capsys, "enumerate", "derangements", "--n", "6")
        assert code == 0 and "265" in out
        code, out = run_cli(capsys, "enumerate", "nca-pairs", "--n", "3",
                            "--format", "json")
        assert json.loads(out)["no_common_ascent_pairs"] == 19
        code, out = run_cli(capsys, "enumerate", "flag-vector", "--n", "3",
                            "--format", "json")
        assert json.loads(out)["alpha_beta_sum"] == 19
        code, out = run_cli(capsys, "enumerate", "falling-chains", "--n", "3",
                            "--format", "json")
        assert json.loads(out)["falling_chains"] == 19


    @pytest.mark.parametrize("n", ["10", "25"])
    def test_flag_vector_bound_is_exit_2(self, capsys, n):
        code = main(["enumerate", "flag-vector", "--n", n])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "n <= 9" in captured.err


class TestVerifyRunner:
    def test_small_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify-paper", "--table-max-n", "3",
                            "--rees-max-n", "3", "--subword-max-n", "3",
                            "--mobius-max-n", "3", "--oracle-samples", "5")
        assert code == 0
        assert "0 failed" in out

    def test_json_deterministic(self, capsys):
        args = ["verify-paper", "--table-max-n", "2", "--rees-max-n", "2",
                "--subword-max-n", "2", "--mobius-max-n", "2",
                "--oracle-samples", "3", "--format", "json"]
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["all_passed"] is True

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_rees_to_8_and_subword_to_6_in_a_child(self, tmp_path):
        # R(7), R(8) and K(6) get their homology from critical chains; the
        # child reports its peak resident size (VmHWM, kB) after the run
        report = tmp_path / "report.json"
        code = ("import sys\n"
                "from posettop.cli import main\n"
                "print(main(sys.argv[1:]))\n"
                "print(next(line.split()[1] for line in open('/proc/self/status')\n"
                "           if line.startswith('VmHWM:')))\n")
        args = ["verify-paper", "--table-max-n", "1", "--rees-max-n", "8",
                "--subword-max-n", "6", "--mobius-max-n", "1", "--oracle-samples", "1",
                "--format", "json", "-o", str(report)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        seconds = time.perf_counter() - t0
        exit_code, peak_kb = done.stdout.splitlines()
        assert exit_code == "0", done.stderr
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert checks["R(7)"]["expected"] == "H~6=Z^1854"
        assert checks["R(8)"]["expected"] == "H~7=Z^14833"
        assert all(checks[name]["passed"] for name in ("R(7)", "R(8)", "K(6)"))
        assert seconds < 10
        assert int(peak_kb) < 150 * 1024

    def test_threads_flag_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--max-n", "1", "--oracle-samples", "1",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_thread_variable_is_ignored(self, capsys, monkeypatch):
        args = ["verify-paper", "--max-n", "1", "--oracle-samples", "1",
                "--format", "json"]
        _, plain = run_cli(capsys, *args)
        monkeypatch.setenv("POSETTOP_THREADS", "abc")
        code, with_variable = run_cli(capsys, *args)
        assert code == 0
        assert with_variable == plain


class TestErrors:
    def test_malformed_input_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(capsys, "cm", str(bad))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "cm", "/nonexistent/p.json")
        assert code == 2

    @pytest.mark.parametrize("command, data", [
        ("homology", {"vertices": [1, 2], "facets": 5}),
        ("homology", {"vertices": 5, "facets": []}),
        ("homology", {"vertices": ["a"], "facets": [5]}),
        ("homology", {"vertices": [[1], 2], "facets": [[[1], 2]]}),
        ("cm", {"elements": ["a"], "covers": 5}),
        ("cm", {"elements": 5, "covers": []}),
        ("cm", {"elements": [["x"], "b"], "covers": []}),
        ("cm", {"elements": ["a", "b"], "covers": [[["a"], "b"]]}),
    ], ids=["facets-int", "vertices-int", "facet-int", "list-vertex",
            "covers-int", "elements-int", "list-element", "list-cover-label"])
    def test_malformed_structure_is_usage_error(self, capsys, tmp_path, command, data):
        # valid JSON of the wrong shape is refused in one line, not with a
        # traceback and exit 1 (which reads as a failed check)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("data", [{"values": [1, 2]}, {"values": 3}, [1, 2], {}])
    @pytest.mark.parametrize("flag", ["--f-map", "--g-map"])
    def test_malformed_map_is_usage_error(self, capsys, tmp_path, flag, data):
        c = tmp_path / "c.json"
        run_cli(capsys, "-o", str(c), "family", "chain", "--n", "2")
        f = tmp_path / "f.json"
        f.write_text(json.dumps(data))
        code = main(["construct", "segre", str(c), str(c), flag, str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and '"values" object' in captured.err

    @pytest.mark.parametrize("data", [{"colors": 3}, {"colors": ["a"]}, [1], {}])
    @pytest.mark.parametrize("command", ["type-select", "segre"])
    def test_malformed_coloring_is_usage_error(self, capsys, tmp_path, command, data):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b"], "facets": [["a", "b"]]}')
        c = tmp_path / "c.json"
        c.write_text(json.dumps(data))
        if command == "type-select":
            argv = ["complex", "type-select", str(k), "--colors", str(c), "--keep", "1"]
        else:
            argv = ["complex", "segre", str(k), str(c), str(k), str(c)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and '"colors" object' in captured.err

    def test_bool_map_values_are_usage_error(self, capsys, tmp_path):
        # JSON's false and true are no naturals 0 and 1
        c = tmp_path / "c.json"
        run_cli(capsys, "-o", str(c), "family", "chain", "--n", "2")
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"values": {"0": False, "1": True}}))
        code = main(["construct", "segre", str(c), str(c), "--f-map", str(f)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "values in N" in captured.err

    @pytest.mark.parametrize("command", ["type-select", "segre"])
    def test_bool_colors_are_usage_error(self, capsys, tmp_path, command):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b"], "facets": [["a", "b"]]}')
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"colors": {"a": True, "b": 2}}))
        if command == "type-select":
            argv = ["complex", "type-select", str(k), "--colors", str(c), "--keep", "1"]
        else:
            argv = ["complex", "segre", str(k), str(c), str(k), str(c)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "colors must be integers" in captured.err

    def test_size_limit_is_exit_2(self, capsys, tmp_path, monkeypatch):
        # a cap of 10 covers makes the real enumeration stop at degree 2,
        # where the 6 elements below would record 5 up covers each
        s = tmp_path / "s.json"
        run_cli(capsys, "-o", str(s), "semigroup", "natural", "--d", "5")
        monkeypatch.setattr(semigroups, "COVER_CAP", 10)
        code = main(["semigroup", "koszul-test", str(s), "--max-rank", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: degree 2 would record 30 up covers, COVER_CAP is 10\n"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="sets a child's address-space limit")
    def test_element_cap_refuses_early(self, capsys, tmp_path):
        # N^2 has m(m + 1)/2 elements below degree m, each with 2 up
        # covers, so the cap is reached at degree 632, long before the
        # degree-20000 layer of the element; a cap per layer would enumerate
        # some 2 * 10^8 elements first, so the child runs under a time and
        # an address-space limit
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        s = tmp_path / "s.json"
        run_cli(capsys, "-o", str(s), "semigroup", "natural", "--d", "2")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "posettop.cli", "semigroup", "interval", str(s),
             "--element", "20000,0"],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=5)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == ("error: degree 632 would record 400056 up covers, "
                               "COVER_CAP is 400000\n")

    @pytest.mark.parametrize("data", [
        {"dim": 2, "generators": [[1.7, 0], [0, 1]], "weight": [1, 1], "scale": 1},
        {"dim": 2, "generators": [[1, 0], [0, 1]], "weight": [1, 1], "scale": 1.9},
        {"dim": 2, "generators": [[1, 0], [0, 1]], "weight": [1.0, 1], "scale": 1},
        {"dim": 2, "generators": [[True, 0], [0, 1]], "weight": [1, 1], "scale": 1},
    ], ids=["float-coordinate", "float-scale", "float-weight", "bool-coordinate"])
    @pytest.mark.parametrize("op", [["koszul-test", "--max-rank", "3"],
                                    ["interval", "--element", "2,1"]],
                             ids=["koszul-test", "interval"])
    def test_non_integer_semigroup_numbers_are_usage_errors(self, capsys, tmp_path, data, op):
        # read as 1, 1.7, 1.9 and true would make each file N^2
        bad = tmp_path / "s.json"
        bad.write_text(json.dumps(data))
        code = main(["semigroup", op[0], str(bad), *op[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "integer" in captured.err

    def test_out_of_memory_is_exit_2(self, capsys, monkeypatch):
        # exit 1 would read as a failed check, so a MemoryError is a limit
        def exhausted(args):
            raise MemoryError
        monkeypatch.setitem(cli._HANDLERS, "cm", exhausted)
        code = main(["cm", "p.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: out of memory\n"
        assert captured.out == ""


class TestMaxNCap:
    def test_global_cap(self, capsys):
        code, out = run_cli(capsys, "verify-paper", "--max-n", "3",
                            "--oracle-samples", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert "I(3,3)" in names and "I(4,1)" not in names
        assert "R(3)" in names and "R(4)" not in names
        assert "K(3)" in names and "K(4)" not in names

    def test_individual_flag_wins(self, capsys):
        code, out = run_cli(capsys, "verify-paper", "--max-n", "2",
                            "--subword-max-n", "3",
                            "--oracle-samples", "3", "--format", "json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "K(3)" in names
        assert "I(3,1)" not in names


class TestGoldenPayload:
    def test_small_verify_paper_json_is_byte_identical(self, capsys):
        # tests/data/verify_paper_small.json is the output of
        # `posettop verify-paper --max-n 4 --oracle-samples 5 --format json`
        golden = (Path(__file__).parent / "data" / "verify_paper_small.json").read_text()
        code, out = run_cli(capsys, "verify-paper", "--max-n", "4",
                            "--oracle-samples", "5", "--format", "json")
        assert code == 0
        assert out == golden


class TestComplexSegreCommand:
    def test_edge_pairing(self, capsys, tmp_path):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["1", "2"], "facets": [["1", "2"]]}')
        c = tmp_path / "c.json"
        c.write_text('{"colors": {"1": 1, "2": 2}}')
        code, out = run_cli(capsys, "complex", "segre",
                            str(k), str(c), str(k), str(c))
        assert code == 0
        data = json.loads(out)
        assert data["facets"] == [["(1,1)", "(2,2)"]]

    def test_type_select_command(self, capsys, tmp_path):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b", "c"], "facets": [["a", "b", "c"]]}')
        c = tmp_path / "c.json"
        c.write_text('{"colors": {"a": 1, "b": 2, "c": 3}}')
        code, out = run_cli(capsys, "complex", "type-select", str(k),
                            "--colors", str(c), "--keep", "1,3")
        assert code == 0
        assert json.loads(out)["facets"] == [["a", "c"]]


class TestStdinDefaults:
    """A subcommand whose one input is omitted reads it from stdin, so the
    output is the same as with the file named."""

    def _both(self, capsys, monkeypatch, path, *argv):
        code, from_file = run_cli(capsys, *argv[:2], str(path), *argv[2:])
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, from_stdin = run_cli(capsys, *argv)
        assert code == 0
        return from_file, from_stdin

    def test_order_complex(self, capsys, monkeypatch, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        from_file, from_stdin = self._both(capsys, monkeypatch, b, "complex", "order-complex")
        assert from_stdin == from_file
        assert len(json.loads(from_stdin)["facets"]) == 6

    def test_subdivision(self, capsys, monkeypatch, tmp_path):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b"], "facets": [["a", "b"]]}')
        from_file, from_stdin = self._both(capsys, monkeypatch, k, "complex", "subdivision")
        assert from_stdin == from_file
        assert len(json.loads(from_stdin)["facets"]) == 2

    def test_type_select(self, capsys, monkeypatch, tmp_path):
        k = tmp_path / "k.json"
        k.write_text('{"vertices": ["a", "b", "c"], "facets": [["a", "b", "c"]]}')
        c = tmp_path / "c.json"
        c.write_text('{"colors": {"a": 1, "b": 2, "c": 3}}')
        from_file, from_stdin = self._both(capsys, monkeypatch, k, "complex", "type-select",
                                           "--colors", str(c), "--keep", "1,3")
        assert from_stdin == from_file
        assert json.loads(from_stdin)["facets"] == [["a", "c"]]

    def test_rank_select(self, capsys, monkeypatch, tmp_path):
        b = tmp_path / "b.json"
        run_cli(capsys, "-o", str(b), "family", "boolean", "--n", "3")
        from_file, from_stdin = self._both(capsys, monkeypatch, b, "construct", "rank-select",
                                           "--ranks", "1,2")
        assert from_stdin == from_file
        assert len(poset_from_json(from_stdin)) == 6


class TestLazyImports:
    def test_verification_and_permutations_load_on_first_use(self):
        # neither the package nor the CLI imports them until a name they
        # export is used; then the name resolves as an eager import did
        script = (
            "import sys, posettop, posettop.cli\n"
            "lazy = ['posettop.permutations', 'posettop.verification']\n"
            "assert not any(m in sys.modules for m in lazy)\n"
            "assert {'derangements', 'run_verification'} <= set(dir(posettop))\n"
            "assert posettop.derangements(4) == 9\n"
            "from posettop import VerificationReport, run_verification\n"
            "from posettop.verification import run_verification as direct\n"
            "assert run_verification is direct\n"
            "assert all(m in sys.modules for m in lazy)\n"
            "names = {}\n"
            "exec('from posettop import *', names)\n"
            "assert {'FlagVector', 'is_cm_poset', 'verification'} <= set(names)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestExplicitHomologyScale:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="sets a child's address-space limit")
    def test_order_complex_route_on_a_word_ideal(self):
        # the README's route through an explicit complex on I(6,2): its
        # 41,040 facets fit in well under 1 GB, while keying the chain tree's
        # states by one bit per facet took 1.3 GB; the address-space limit is
        # set in the shell that runs the pipeline, so it binds every stage
        # and not this process
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        cli = f"{sys.executable} -m posettop.cli"
        command = (f"{cli} family fiber-ideal --n 6 --i 2 | {cli} complex order-complex"
                   f" | {cli} homology")
        done = subprocess.run(command, shell=True, env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"coefficients": "Z", "dims": {}}


def readme_shell_commands():
    """The commands of README's ``sh`` block under "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


class TestReadmePipelines:
    def test_readme_commands_run(self, tmp_path):
        # every quoted command runs as written, with the package's module
        # standing in for the installed script, in order in one directory
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        cli = f"{sys.executable} -m posettop.cli"
        outputs = []
        for line in readme_shell_commands():
            command = re.sub(r"\bposettop\b", cli, line)
            done = subprocess.run(command, shell=True, cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (line, done.stderr)
            outputs.append(done.stdout)
        cm_b3, _, r4, cm_select, k3, koszul, falling = outputs
        assert cm_b3.strip() == "Cohen-Macaulay over Q"
        assert (tmp_path / "r4.json").exists()
        assert json.loads(r4) == {"coefficients": "Z",
                                  "dims": {"3": {"betti": 9, "torsion": []}}}
        assert cm_select.strip() == "Cohen-Macaulay over GF(2)"
        assert json.loads(k3) == {"coefficients": "Q",
                                  "dims": {"2": {"betti": 2, "torsion": []}}}
        assert koszul.startswith("consistent with Koszul up to rank 3 over Q")
        assert json.loads(falling) == {"n": 4, "falling_chains": 211}
