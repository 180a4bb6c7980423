"""Black-box tests of the command-line front end."""

import json

import numpy as np
import pytest

import nmfkit.cli as cli_mod
import nmfkit.matcore as matcore_mod
from nmfkit.cli import main
from nmfkit.factor import FactorConfig, ParamSet
from nmfkit.mio import SynthArgs, read_matrix


@pytest.fixture
def small_matrix(tmp_path):
    path = tmp_path / "V.mtx"
    code = main(["synth", "--rows", "15", "--cols", "10", "--rank", "3",
                 "--noise", "0.01", "--seed", "5", "--output", str(path)])
    assert code == 0
    return path


def run_factorize(tmp_path, small_matrix, outname="out", extra=()):
    outdir = tmp_path / outname
    args = ["factorize", "--input", str(small_matrix), "--method", "lsnmf",
            "--rank", "3", "--max-iter", "30", "--master-seed", "7",
            "--output-dir", str(outdir)]
    args.extend(extra)
    return main(args), outdir


class TestExitCodes:
    def test_success_path(self, tmp_path, small_matrix, capsys):
        code, outdir = run_factorize(tmp_path, small_matrix)
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Rss:")
        assert len(out.splitlines()) == 4
        for name in ("W.mtx", "H.mtx", "summary.json"):
            assert (outdir / name).exists()

    def test_rank_zero_is_usage_error(self, tmp_path, small_matrix):
        code, _ = run_factorize(tmp_path, small_matrix,
                                extra=["--rank", "0"])
        # argparse re-parses --rank; the later value wins and is invalid
        assert code == 2

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["factorize", "--input", str(tmp_path / "nope.mtx"),
                     "--method", "lsnmf", "--rank", "2"])
        assert code == 1
        assert "nope.mtx" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        (b"2 2 1\n1 1 \xff\n", "error (io): cannot read "),
        (b"-1 2 0\n", "error (shape): line 2: the size line needs "),
    ])
    def test_unreadable_input_is_one_error_line(self, tmp_path, capsys, body,
                                                message):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         + body)
        code = main(["factorize", "--input", str(path), "--method",
                     "nmf-eu", "--rank", "1", "--output-dir",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, doing", [
        # passes the size-line check, but no row-pointer array has 2**60 + 1
        # entries; numpy refuses it with a ValueError, not a MemoryError
        ("1152921504606846976 2 0\n", "reading "),
        # 2**63 - 1 rows need 2**63 row pointers: on the loadtxt path, and
        # on the token path, which a `%` line in the body selects
        ("9223372036854775807 2 1\n1 1 1\n", "reading "),
        ("9223372036854775807 2 1\n% c\n1 1 1\n", "reading "),
        # reads, but random_vcol seeding samples a fifth of 2**60 columns
        ("2 1152921504606846976 1\n1 1 1\n", "running nmf-eu at rank 1 on a "
                                             "2x1152921504606846976 matrix"),
    ], ids=["rows", "int64-rows-loadtxt", "int64-rows-token-path", "cols"])
    def test_huge_size_line_is_one_memory_error_line(self, tmp_path, capsys,
                                                     body, doing):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        + body)
        code = main(["factorize", "--input", str(path), "--method", "nmf-eu",
                     "--rank", "1", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error (memory): out of memory " + doing)
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_flag(self, small_matrix):
        code = main(["factorize", "--input", str(small_matrix),
                     "--method", "lsnmf", "--rank", "2", "--bogus"])
        assert code == 2

    def test_unknown_method(self, small_matrix):
        code = main(["factorize", "--input", str(small_matrix),
                     "--method", "pca", "--rank", "2"])
        assert code == 2

    def test_rank_larger_than_matrix_is_runtime_error(self, tmp_path,
                                                      small_matrix, capsys):
        code, _ = run_factorize(tmp_path, small_matrix,
                                extra=["--rank", "99"])
        assert code == 1
        assert "rank" in capsys.readouterr().err

    def test_flag_defaults_are_the_record_defaults(self):
        args = cli_mod.build_parser().parse_args(
            ["factorize", "--input", "v.mtx", "--method", "nmf-eu",
             "--rank", "2"])
        assert cli_mod._build_config(args, 2) == FactorConfig("nmf-eu", 2)

    def test_param_values_take_the_field_type(self):
        # the casts follow ParamSet's annotations ("int | None" is int)
        args = cli_mod.build_parser().parse_args(
            ["factorize", "--input", "v.mtx", "--method", "bd", "--rank", "2",
             "--param", "burn_in=3", "--param", "theta=1"])
        params = cli_mod._build_config(args, 2).params
        assert type(params.burn_in) is int and type(params.theta) is float

    @pytest.mark.parametrize("flag, value, message", [
        ("--param", "lambda_period=2.5",
         "parameter lambda_period must be of type int, got '2.5'"),
        ("--param", "theta=x", "parameter theta must be of type float, "
                               "got 'x'"),
        ("--param", "warp=1", "unknown method parameter 'warp'"),
        ("--param", "theta", "expects KEY=VALUE, got 'theta'"),
        ("--ranks", "5..2", "expects A..B or a comma list of positive "
                            "integers, got '5..2'"),
        ("--ranks", "0,2", "expects A..B or a comma list"),
        ("--ranks", "2..x", "expects A..B or a comma list of positive "
                            "integers, got '2..x'"),
        ("--ranks", "two", "expects A..B or a comma list of positive "
                           "integers, got 'two'"),
    ])
    def test_malformed_param_or_ranks_is_usage_error(
            self, tmp_path, small_matrix, capsys, flag, value, message):
        # argparse's one channel: exit 2 and a message naming the flag
        outdir = tmp_path / "out"
        ranks = [] if flag == "--ranks" else ["--ranks", "2"]
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", *ranks, flag, value,
                     "--output-dir", str(outdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "rank-estimate: error: argument %s: %s" % (flag, message) in err
        assert not outdir.exists()

    @pytest.mark.parametrize("method, param", [
        ("lsnmf", "armijo_beta=0"),  # was a ZeroDivisionError traceback
        ("bd", "sigma_shape=-200"),  # was numpy's "shape < 0" ValueError
        ("snmf-r", "eta=nan"),       # was a run that exited 0
    ])
    def test_out_of_range_param_is_param_error(self, tmp_path, capsys,
                                               method, param):
        # flag misuse: exit 2 from argparse, before the input is read
        code = main(["factorize", "--input", str(tmp_path / "absent.mtx"),
                     "--method", method, "--rank", "3", "--param", param,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        key, value = param.split("=")
        interval = ParamSet.__dataclass_fields__[key].metadata["range"]
        assert ("factorize: error: argument --param: parameter %s must be "
                "finite and lie in %s, got %r" % (key, interval, value)
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        ["--allow-negative"],    # V >= 0 is checked by factorize alone
        ["--seed", "fixed"],     # no flag supplies W0 and H0
        ["--min-delta", "nan"],  # ran to --max-iter and exited 0
        ["--min-delta", "inf"],
    ])
    def test_removed_or_non_finite_flag_is_usage_error(self, tmp_path,
                                                       small_matrix, extra):
        code, outdir = run_factorize(tmp_path, small_matrix, extra=extra)
        assert code == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("command, rank", [
        ("factorize", ["--rank", "1"]),
        ("rank-estimate", ["--ranks", "1..2"])])
    def test_negative_input_is_domain_error(self, tmp_path, capsys, command,
                                            rank):
        path = tmp_path / "neg.csv"
        path.write_text("1,2,3\n4,-5,6\n7,8,9\n")
        outdir = tmp_path / "out"
        code = main([command, "--input", str(path), "--method", "nmf-eu",
                     *rank, "--output-dir", str(outdir)])
        assert code == 1
        assert (capsys.readouterr().err
                == "error (domain): V contains negative entries\n")
        assert not outdir.exists()

    def test_dense_view_out_of_memory_exits_1(self, tmp_path, monkeypatch,
                                              capsys):
        path = tmp_path / "sparse.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "13 11 3\n1 1 1.0\n7 4 2.0\n13 11 3.0\n")
        zeros = np.zeros

        def no_dense_v(shape, *args, **kwargs):
            if tuple(np.atleast_1d(shape)) == (13, 11):
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(matcore_mod.np, "zeros", no_dense_v)
        # the CSV writer must densify; a factorization keeps a CSR V sparse
        code = main(["convert", "--input", str(path), "--output",
                     str(tmp_path / "dense.csv"), "--to", "csv"])
        monkeypatch.undo()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error (memory): cannot allocate the dense "
                              "13x11 view")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_bare_memory_error_exits_1(self, tmp_path, small_matrix,
                                       monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "factorize", exhausted)
        code, _ = run_factorize(tmp_path, small_matrix)
        assert code == 1
        assert capsys.readouterr().err == "error (memory): out of memory\n"

    def test_help_exits_zero_everywhere(self, capsys):
        for cmd in ("factorize", "rank-estimate", "synth", "convert"):
            assert main([cmd, "--help"]) == 0
            assert "--help" in capsys.readouterr().out
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestFactorizeOutputs:
    def test_summary_schema(self, tmp_path, small_matrix):
        _, outdir = run_factorize(tmp_path, small_matrix)
        payload = json.loads((outdir / "summary.json").read_text())
        assert payload["schema_version"] == "2"
        assert payload["method"] == "lsnmf"
        assert payload["rank"] == 3
        assert payload["seed_method"] == "random_vcol"
        assert payload["n_iter"] <= payload["max_iter"]
        assert 0.0 < payload["evar"] <= 1.0
        assert payload["dist_kl"] >= 0.0
        assert 0.0 <= payload["sparseness_w"] <= 1.0
        assert isinstance(payload["warnings"], list)
        # timing goes to stderr only, so the file stays byte-identical
        assert "timing_ms" not in payload

    def test_summary_key_set(self, tmp_path, small_matrix):
        keys = {"schema_version", "method", "rank", "seed_method", "n_iter",
                "max_iter", "rss", "evar", "dist_euclidean", "dist_kl",
                "sparseness_w", "sparseness_h", "warnings"}
        _, outdir = run_factorize(tmp_path, small_matrix, "plain")
        assert set(json.loads((outdir / "summary.json").read_text())) == keys
        _, outdir = run_factorize(tmp_path, small_matrix, "traced",
                                  extra=["--track-error"])
        payload = json.loads((outdir / "summary.json").read_text())
        assert set(payload) == keys | {"objective_trace"}

    def test_track_error_writes_trace(self, tmp_path, small_matrix):
        _, outdir = run_factorize(tmp_path, small_matrix,
                                  extra=["--track-error"])
        payload = json.loads((outdir / "summary.json").read_text())
        assert len(payload["objective_trace"]) == payload["n_iter"]

    def test_byte_identical_reruns(self, tmp_path, small_matrix):
        _, out1 = run_factorize(tmp_path, small_matrix, "out1")
        _, out2 = run_factorize(tmp_path, small_matrix, "out2")
        for name in ("W.mtx", "H.mtx", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_byte_identical_across_processes(self, tmp_path, small_matrix):
        import subprocess
        import sys
        outs = []
        for name in ("p1", "p2"):
            outdir = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "nmfkit", "factorize", "--input",
                 str(small_matrix), "--method", "nmf-kl", "--rank", "2",
                 "--max-iter", "20", "--master-seed", "3", "--output-dir",
                 str(outdir)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append((outdir / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_factors_reconstruct_input(self, tmp_path, small_matrix):
        _, outdir = run_factorize(tmp_path, small_matrix)
        w = read_matrix(outdir / "W.mtx").to_dense()
        h = read_matrix(outdir / "H.mtx").to_dense()
        v = read_matrix(small_matrix).to_dense()
        assert np.linalg.norm(v - w @ h) / np.linalg.norm(v) < 0.2

    def test_param_passthrough(self, tmp_path, small_matrix):
        code, outdir = run_factorize(
            tmp_path, small_matrix,
            extra=["--method", "nsnmf", "--param", "theta=0.3"])
        assert code == 0

    def test_scale_unit_enables_bmf(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("5,1\n1,5\n")
        outdir = tmp_path / "bmf_out"
        code = main(["factorize", "--input", str(big), "--method", "bmf",
                     "--rank", "1", "--scale-unit", "--max-iter", "20",
                     "--output-dir", str(outdir)])
        assert code == 0

    def test_bmf_penalty_schedule_past_float_range(self, tmp_path):
        # lambda0 * 10 ** 400 has no float value; the cap applies instead
        matrix = tmp_path / "s.mtx"
        assert main(["synth", "--rows", "20", "--cols", "15", "--rank", "3",
                     "--output", str(matrix)]) == 0
        outdir = tmp_path / "out"
        assert main(["factorize", "--input", str(matrix), "--rank", "3",
                     "--method", "bmf", "--scale-unit",
                     "--param", "lambda_period=1", "--max-iter", "400",
                     "--min-delta", "0", "--conn-change", "0",
                     "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "summary.json").read_text())
        assert payload["n_iter"] == 400


class TestRankEstimate:
    def test_report_files_and_record_count(self, tmp_path, small_matrix,
                                           capsys):
        outdir = tmp_path / "rank_out"
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "2..4", "--runs", "3",
                     "--max-iter", "30", "--master-seed", "1",
                     "--output-dir", str(outdir)])
        assert code == 0
        assert "Recommended rank:" in capsys.readouterr().out
        payload = json.loads((outdir / "consensus_report.json").read_text())
        assert len(payload["ranks"]) == 3
        assert payload["recommended_rank"] in (2, 3, 4)
        csv_lines = (outdir / "consensus_report.csv").read_text().splitlines()
        assert csv_lines[0] == ("rank,cophenetic,dispersion,mean_rss,"
                                "mean_evar,mean_n_iter")
        assert len(csv_lines) == 4

    def test_single_run_records_warning(self, tmp_path, small_matrix):
        outdir = tmp_path / "single"
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "3", "--runs", "1",
                     "--max-iter", "20", "--output-dir", str(outdir)])
        assert code == 0
        payload = json.loads((outdir / "consensus_report.json").read_text())
        assert payload["warnings"]
        assert -1.0 <= payload["ranks"][0]["cophenetic"] <= 1.0

    def test_byte_identical_csv(self, tmp_path, small_matrix):
        outputs = []
        for name in ("r1", "r2"):
            outdir = tmp_path / name
            code = main(["rank-estimate", "--input", str(small_matrix),
                         "--method", "nmf-kl", "--ranks", "2,3", "--runs",
                         "3", "--max-iter", "25", "--master-seed", "42",
                         "--output-dir", str(outdir)])
            assert code == 0
            outputs.append((outdir / "consensus_report.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_finite_report_is_param_error(self, tmp_path, small_matrix,
                                              monkeypatch, capsys):
        from nmfkit.multirun import ConsensusReport, RankRecord
        nan = float("nan")
        report = ConsensusReport([RankRecord(2, nan, 1.0, 1.0, 0.5, 3.0)], 2)
        monkeypatch.setattr(cli_mod, "rank_sweep", lambda v, sweep: report)
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "2",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error (param): summary field 'ranks' is not finite")

    def test_threads_flag_is_gone(self, tmp_path, small_matrix):
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "2", "--runs", "2",
                     "--max-iter", "10", "--threads", "2",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2

    def test_sparseness_axis_is_a_factorize_flag(self, tmp_path,
                                                 small_matrix):
        # rank-estimate accepted the flag and ignored it
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "2", "--runs", "2",
                     "--max-iter", "10", "--sparseness-axis", "rows",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        code, _ = run_factorize(tmp_path, small_matrix,
                                extra=["--sparseness-axis", "rows"])
        assert code == 0

    def test_threads_env_is_ignored(self, tmp_path, small_matrix,
                                    monkeypatch):
        monkeypatch.setenv("NMFKIT_THREADS", "abc")
        code = main(["rank-estimate", "--input", str(small_matrix),
                     "--method", "nmf-kl", "--ranks", "2", "--runs", "2",
                     "--max-iter", "10", "--output-dir", str(tmp_path / "out")])
        assert code == 0


class TestSynthAndConvert:
    def test_emit_truth(self, tmp_path):
        out = tmp_path / "data" / "V.mtx"
        code = main(["synth", "--rows", "8", "--cols", "6", "--rank", "2",
                     "--output", str(out), "--emit-truth"])
        assert code == 0
        v = read_matrix(out).to_dense()
        w = read_matrix(out.with_name("V_W.mtx")).to_dense()
        h = read_matrix(out.with_name("V_H.mtx")).to_dense()
        np.testing.assert_array_equal(v, w @ h)

    def test_convert_roundtrip_preserves_values(self, tmp_path, small_matrix):
        csv_path = tmp_path / "V.csv"
        back_path = tmp_path / "V_back.mtx"
        assert main(["convert", "--input", str(small_matrix), "--output",
                     str(csv_path), "--to", "csv"]) == 0
        assert main(["convert", "--input", str(csv_path), "--output",
                     str(back_path), "--to", "mtx"]) == 0
        original = read_matrix(small_matrix).to_dense()
        back = read_matrix(back_path).to_dense()
        np.testing.assert_allclose(back, original, atol=1e-15)

    def test_convert_unsupported_target(self, tmp_path, small_matrix):
        assert main(["convert", "--input", str(small_matrix), "--output",
                     str(tmp_path / "x.h5"), "--to", "hdf5"]) == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, noise):
        # nan wrote a noise-free matrix and exited 0
        out = tmp_path / "V.mtx"
        assert main(["synth", "--rows", "4", "--cols", "4", "--rank", "2",
                     "--noise", noise, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("density", ["nan", "0", "2", "-1"])
    def test_density_outside_unit_interval_is_usage_error(self, tmp_path,
                                                          density):
        # these exited 1 with "error (param)" from mio.synth
        out = tmp_path / "V.mtx"
        assert main(["synth", "--rows", "4", "--cols", "4", "--rank", "2",
                     "--density", density, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--rows", "m", "0"), ("--cols", "n", "0"), ("--rank", "k_true", "0"),
        ("--noise", "noise_sigma", "-1"), ("--density", "density", "0"),
        ("--seed", "seed", "-1")])
    def test_synth_flags_take_synth_ranges(self, tmp_path, capsys, flag,
                                           field, value):
        # each flag refuses what `synth` refuses, naming synth's range
        interval = SynthArgs.__dataclass_fields__[field].metadata["range"]
        sizes = {"--rows": "4", "--cols": "4", "--rank": "2", flag: value}
        out = tmp_path / "V.mtx"
        code = main(["synth", *[x for kv in sizes.items() for x in kv],
                     "--output", str(out)])
        assert code == 2
        assert ("synth: error: argument %s: must be finite and lie in %s"
                % (flag, interval)) in capsys.readouterr().err
        assert not out.exists()

    def test_synth_rank_too_large_is_runtime_error(self, tmp_path):
        code = main(["synth", "--rows", "4", "--cols", "4", "--rank", "9",
                     "--output", str(tmp_path / "V.mtx")])
        assert code == 1

    @pytest.mark.parametrize("seed_name", ["random", "random_c",
                                           "random_vcol", "nndsvd",
                                           "nndsvda", "nndsvdar"])
    def test_every_seeding_name_works(self, tmp_path, small_matrix,
                                      seed_name):
        code, outdir = run_factorize(tmp_path, small_matrix,
                                     "out_" + seed_name,
                                     extra=["--seed", seed_name])
        assert code == 0
        payload = json.loads((outdir / "summary.json").read_text())
        assert payload["seed_method"] == seed_name

    def test_noise_free_synth_factorizes_cleanly(self, tmp_path):
        matrix = tmp_path / "clean.mtx"
        outdir = tmp_path / "clean_out"
        assert main(["synth", "--rows", "20", "--cols", "10", "--rank", "3",
                     "--noise", "0", "--output", str(matrix)]) == 0
        assert main(["factorize", "--input", str(matrix), "--method",
                     "lsnmf", "--rank", "3", "--max-iter", "300",
                     "--min-delta", "0", "--conn-change", "0",
                     "--output-dir", str(outdir)]) == 0
        payload = json.loads((outdir / "summary.json").read_text())
        assert payload["evar"] >= 0.999
