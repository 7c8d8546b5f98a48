import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgfm
from conftest import synthetic_svm_text
from dgfm import read_csv_rows, theorem_params_dgfm_plus
from dgfm import cli
from dgfm.cli import main
from dgfm.params import RHO_FLOOR


def run_cli(*args):
    return main(list(args))


class TestSmoke:
    def test_builtin_quadratic(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                       "--iters", "100", "--eta", "0.1", "--delta", "0.01",
                       "--seed", "7", "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 100
        assert all(r["loss"] > 0 for r in rows)

    def test_record_every_thins_output(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                       "--iters", "100", "--eta", "0.01", "--delta", "0.01",
                       "--record-every", "10", "--out", str(out)) == 0
        assert len(read_csv_rows(out)) == 10

    def test_decentralized_on_dataset(self, tmp_path):
        data = tmp_path / "tiny.libsvm"
        data.write_text(synthetic_svm_text(n=64, d=10, nnz=3, seed=5))
        out = tmp_path / "r.csv"
        code = run_cli("--algo", "dgfm", "--dataset", str(data), "--subset", "48",
                       "--m", "4", "--topology", "ring", "--eta", "0.005",
                       "--delta", "0.001", "--iters", "50", "--repeats", "2",
                       "--out", str(out))
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 100
        assert {r["seed"] for r in rows} == {0, 1}

    def test_metropolis_topology_from_file(self, tmp_path):
        adjacency = np.eye(4, dtype=int)
        for i in range(4):
            adjacency[i, (i + 1) % 4] = adjacency[(i + 1) % 4, i] = 1
        adj_path = tmp_path / "ring4.adj"
        np.savetxt(adj_path, adjacency, fmt="%d")
        out = tmp_path / "r.json"
        code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic", "--dim", "3",
                       "--m", "4", "--topology", f"metropolis:{adj_path}",
                       "--iters", "20", "--eta", "0.02", "--delta", "0.01",
                       "--out", str(out), "--format", "json")
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob[0]["metadata"]["rho"] == pytest.approx(1 / 3, abs=1e-12)
        assert blob[0]["metadata"]["topology"] == "metropolis:ring4.adj"

    def test_topology_id_in_metadata(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("--algo", "dgfm-plus", "--dataset", "builtin:quadratic", "--dim", "3",
                       "--m", "4", "--topology", "ring", "--iters", "10", "--eta", "0.02",
                       "--delta", "0.01", "--period", "5", "--mega-batch", "4",
                       "--out", str(out), "--format", "json")
        assert code == 0
        assert json.loads(out.read_text())[0]["metadata"]["topology"] == "ring"

    def test_abs_builtin_with_plus(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("--algo", "gfm-plus", "--dataset", "builtin:abs", "--dim", "4",
                       "--iters", "30", "--eta", "0.01", "--delta", "0.01",
                       "--period", "10", "--mega-batch", "8", "--batch", "2",
                       "--out", str(out), "--format", "json")
        assert code == 0
        blob = json.loads(out.read_text())
        assert len(blob) == 1 and len(blob[0]["entries"]) == 30


class TestExitCodes:
    def test_missing_eta_is_config_error(self, tmp_path, capsys):
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                       "--iters", "10", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "eta" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = run_cli("--algo", "gfm", "--dataset", str(tmp_path / "nope.libsvm"),
                       "--iters", "10", "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 3
        assert "nope.libsvm" in capsys.readouterr().err

    def test_malformed_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:abc\n")
        code = run_cli("--algo", "gfm", "--dataset", str(bad),
                       "--iters", "10", "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 3

    def test_dataset_that_is_not_text_is_data_error(self, tmp_path, capsys):
        utf16 = tmp_path / "utf16.libsvm"
        utf16.write_bytes(b"\xff\xfe" + "1 1:1\n".encode("utf-16-le"))
        code = run_cli("--algo", "gfm", "--dataset", str(utf16), "--eta", "0.01",
                       "--iters", "3", "--out", str(tmp_path / "r.csv"))
        assert code == 3
        assert "line 1: byte 0xff is not text" in capsys.readouterr().err

    def test_dataset_without_features_is_data_error(self, tmp_path, capsys):
        labels = tmp_path / "labels.libsvm"
        labels.write_text("1\n-1\n1\n")
        code = run_cli("--algo", "gfm", "--dataset", str(labels), "--eta", "0.01",
                       "--iters", "3", "--out", str(tmp_path / "r.csv"))
        assert code == 3
        assert f"data error: {labels}: no sample has a feature" in capsys.readouterr().err

    def test_missing_adjacency_file_is_data_error(self, tmp_path, capsys):
        adj_path = tmp_path / "nope.adj"
        code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic", "--m", "3",
                       "--topology", f"metropolis:{adj_path}", "--iters", "3", "--eta", "0.1",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 3
        assert f"data error: adjacency file not found: {adj_path}" in capsys.readouterr().err

    def test_out_naming_a_directory_is_data_error(self, tmp_path, capsys):
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "3",
                       "--eta", "0.1", "--out", str(tmp_path))
        assert code == 3
        assert f"data error: cannot write records to {tmp_path}" in capsys.readouterr().err

    # Values no run can take, each with the text its config error names. {data}
    # is a 4-sample data file; {bad} is a malformed one, so a case that names it
    # shows the value is refused before the data file is read.
    GFM = "--algo gfm --dataset builtin:quadratic --iters 3 --eta 0.1 "
    PLUS_BAD = ("--algo dgfm-plus --dataset {bad} --m 4 --iters 3 --eta 0.1 --period 2 "
                "--mega-batch 2 ")
    SVM = "--algo gfm --dataset {data} --iters 3 --eta 0.1 "
    THEOREM = "--algo dgfm --dataset builtin:quadratic --m 4 --iters 3 "
    BAD_VALUES = {
        "repeats-0": (GFM + "--repeats 0", "repeats must be >= 1, got 0"),
        "seed-negative": (GFM + "--seed -1", "seed must be >= 0, got -1"),
        "iters-0": (GFM + "--iters 0", "iters must be >= 1, got 0"),
        "delta-0": (GFM + "--delta 0", "delta must be positive and finite, got 0.0"),
        "delta-inf": (GFM + "--delta inf", "delta must be positive and finite, got inf"),
        "eta-0": (GFM + "--eta 0", "eta must be positive and finite, got 0.0"),
        "eta-inf": (PLUS_BAD + "--eta inf", "eta must be positive and finite, got inf"),
        "batch-0": (PLUS_BAD + "--batch 0", "batch must be positive and finite, got 0"),
        "period-0": (PLUS_BAD + "--period 0", "period must be positive and finite, got 0"),
        "mega-batch-0": (PLUS_BAD + "--mega-batch 0", "--mega-batch must be positive and finite"),
        "gossip-0": (PLUS_BAD + "--gossip 0", "--gossip must be positive and finite"),
        "gfm-plus-without-mega-batch": (GFM + "--algo gfm-plus --period 5",
                                        "--mega-batch is required for gfm-plus"),
        "params-bogus": (GFM + "--params bogus", "params must be 'manual' or 'theorem:<epsilon>'"),
        "epsilon-not-a-number": (THEOREM + "--params theorem:x", "bad epsilon in 'theorem:x'"),
        "epsilon-negative": (THEOREM + "--params theorem:-1",
                             "epsilon must be positive and finite, got -1.0"),
        "builtin-unknown": (GFM + "--dataset builtin:nope", "unknown builtin objective 'nope'"),
        "topology-unknown": (THEOREM + "--eta 0.1 --topology star", "unknown topology 'star'"),
        "lam-nan": (SVM + "--lam nan", "need finite lam >= 0"),
        "lam-inf": (SVM + "--lam inf", "need finite lam >= 0"),
        "subset-seed-negative": (SVM + "--subset 2 --subset-seed -1",
                                 "subset seed must be >= 0, got -1"),
        "more-agents-than-samples": (SVM.replace("gfm", "dgfm") + "--m 8",
                                     "dataset has 4 samples, cannot shard across 8 agents"),
    }

    @pytest.mark.parametrize("flags, message", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_run_value_is_config_error(self, flags, message, tmp_path, capsys):
        data, bad = tmp_path / "four.libsvm", tmp_path / "bad.libsvm"
        data.write_text(synthetic_svm_text(n=4, d=4, nnz=2, seed=1))
        bad.write_text("1 1:abc\n")
        code = run_cli(*flags.format(data=data, bad=bad).split(), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "r.csv").exists()

    def test_plus_requires_schedule_flags(self, tmp_path):
        code = run_cli("--algo", "dgfm-plus", "--dataset", "builtin:quadratic",
                       "--m", "4", "--iters", "10", "--eta", "0.1",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 2

    def test_eta_conflicts_with_theorem_mode(self, tmp_path):
        code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic",
                       "--m", "4", "--topology", "complete", "--iters", "10",
                       "--eta", "0.1", "--params", "theorem:0.5",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 2

    def test_theorem_mode_rejected_for_centralized(self, tmp_path):
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                       "--iters", "10", "--params", "theorem:0.5",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 2

    @pytest.mark.parametrize("subset", [["0"], ["-2", "--subset-seed", "1"]],
                             ids=["first-rows", "sampled"])
    def test_subset_below_one_is_config_error(self, subset, tmp_path, capsys):
        data = tmp_path / "tiny.libsvm"
        data.write_text(synthetic_svm_text(n=16, d=4, nnz=2, seed=1))
        code = run_cli("--algo", "gfm", "--dataset", str(data), "--subset", *subset,
                       "--iters", "5", "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "subset must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--subset", "3"], ["--subset-seed", "2"], ["--lam", "5"],
                                      ["--alpha", "5"]],
                             ids=["subset", "subset-seed", "lam", "alpha"])
    def test_data_flag_with_builtin_is_config_error(self, flag, tmp_path, capsys):
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", *flag,
                       "--iters", "3", "--eta", "0.01", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"drop {flag[0]}" in capsys.readouterr().err

    DROPPED = [("dgfm", "--period", "3"), ("dgfm", "--mega-batch", "9"),
               ("dgfm", "--gossip", "5"), ("gfm", "--period", "3"), ("gfm", "--mega-batch", "9"),
               ("gfm", "--gossip", "5"), ("gfm-plus", "--gossip", "5"), ("gfm", "--m", "4"),
               ("gfm", "--topology", "complete"), ("gfm-plus", "--m", "4"),
               ("gfm-plus", "--topology", "metropolis:nofile")]

    @pytest.mark.parametrize("algo, flag, value", DROPPED,
                             ids=[f"{algo}{flag}" for algo, flag, _ in DROPPED])
    def test_flag_the_algorithm_drops_is_config_error(self, algo, flag, value, tmp_path, capsys):
        code = run_cli("--algo", algo, "--dataset", "builtin:quadratic", *ALGO_ARGS[algo],
                       flag, value, "--iters", "3", "--eta", "0.01",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"drop {flag}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_alpha_reaches_a_data_file_objective(self, tmp_path, monkeypatch):
        data = tmp_path / "tiny.libsvm"
        data.write_text(synthetic_svm_text(n=16, d=4, nnz=2, seed=1))
        built = []
        build = cli.CappedL1Svm.from_dataset
        monkeypatch.setattr(cli.CappedL1Svm, "from_dataset",
                            lambda *a, **kw: built.append(kw["alpha"]) or build(*a, **kw))
        for alpha in ([], ["--alpha", "5"]):
            assert run_cli("--algo", "gfm", "--dataset", str(data), *alpha, "--iters", "3",
                           "--eta", "0.01", "--out", str(tmp_path / "r.csv")) == 0
        assert built == [2.0, 5.0]

    def test_subset_seed_without_subset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "tiny.libsvm"
        data.write_text(synthetic_svm_text(n=16, d=4, nnz=2, seed=1))
        code = run_cli("--algo", "gfm", "--dataset", str(data), "--subset-seed", "1",
                       "--iters", "5", "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "--subset-seed needs --subset" in capsys.readouterr().err

    def test_dim_with_a_data_file_is_config_error(self, tmp_path, capsys):
        # the file's width sets the dimension
        data = tmp_path / "tiny.libsvm"
        data.write_text(synthetic_svm_text(n=16, d=4, nnz=2, seed=1))
        code = run_cli("--algo", "gfm", "--dataset", str(data), "--dim", "7", "--iters", "3",
                       "--eta", "0.01", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "drop --dim" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_record_every_above_iters_is_config_error(self, tmp_path, capsys):
        # such a run would record nothing
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "3",
                       "--record-every", "5", "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "record-every must be in [1, iters]" in capsys.readouterr().err

    def test_ring_below_three_agents_is_config_error(self, tmp_path, capsys):
        code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic",
                       "--m", "2", "--topology", "ring", "--iters", "10",
                       "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "--m >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [("", "is empty"),
                                               ("0 1\n1 x\n", "not a numeric matrix"),
                                               ("1 1 0\n", "square matrix, got 1 rows of 3"),
                                               ("1 1 0\n1 1\n0 1 1\n", "not a numeric matrix"),
                                               ("1 1 0 0\n1 1 1 0\n0 1 1 1\n0 0 1 1\n",
                                                "has 4 agents, --m is 3")],
                             ids=["empty", "not-numeric", "not-square", "ragged", "wrong-size"])
    def test_malformed_adjacency_file_is_config_error(self, text, message, tmp_path, capsys):
        adj_path = tmp_path / "graph.adj"
        adj_path.write_text(text)
        code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic", "--m", "3",
                       "--topology", f"metropolis:{adj_path}", "--iters", "3",
                       "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"adjacency file {adj_path}" in err and message in err

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "x",
                       "--eta", "0.1", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_misspelled_required_flag_is_named_as_unknown(self, tmp_path, capsys):
        code = run_cli("--alg", "gfm", "--dataset", "builtin:quadratic", "--eta", "0.1",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --alg gfm" in err
        assert "required" not in err

    def test_missing_required_flags_are_named(self, tmp_path, capsys):
        code = run_cli("--dataset", "builtin:quadratic", "--eta", "0.1")
        assert code == 2
        assert "the following arguments are required: --algo, --out" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_is_numeric_failure(self, tmp_path, capsys):
        # the quadratic squares its scale every step, so a huge step size
        # overflows to inf and the loss turns non-finite within a few iters
        code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                       "--iters", "50", "--eta", "1e155", "--delta", "1e-3",
                       "--out", str(tmp_path / "r.csv"))
        assert code == 4
        assert "iteration" in capsys.readouterr().err


class TestTheoremMode:
    def test_resolved_params_echoed_exactly(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("--algo", "dgfm-plus", "--dataset", "builtin:abs", "--dim", "6",
                       "--m", "4", "--topology", "ring", "--delta", "0.001",
                       "--iters", "8", "--params", "theorem:0.5",
                       "--out", str(out), "--format", "json")
        assert code == 0
        blob = json.loads(out.read_text())
        echoed = blob[0]["metadata"]["theorem_params"]
        rho = blob[0]["metadata"]["rho"]
        lip = np.sqrt(6)
        gap = 0.0 + 0.001 * lip  # loss at the origin plus delta * L
        params = theorem_params_dgfm_plus(rho, lip, 6, 0.001, 0.5, 4, gap)
        assert echoed["eta"] == params.eta
        assert echoed["batch"] == params.batch
        assert echoed["mega_batch"] == params.mega_batch
        assert echoed["period"] == params.period
        assert echoed["gossip_rounds"] == params.gossip_rounds
        cfg_echo = blob[0]["metadata"]["config"]
        assert cfg_echo["eta"] == params.eta
        assert cfg_echo["mega_batch"] == params.mega_batch

    THEOREM_RUN = ("--algo", "dgfm-plus", "--dataset", "builtin:quadratic", "--m", "4",
                   "--iters", "5", "--params", "theorem:0.5")

    @pytest.mark.parametrize("flag", ["--batch", "--mega-batch", "--period", "--gossip", "--eta"])
    def test_schedule_flags_conflict(self, flag, tmp_path, capsys):
        # the prescription sets the whole schedule, so a given flag could only be overridden
        code = run_cli(*self.THEOREM_RUN, flag, "7", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"drop {flag}" in capsys.readouterr().err

    def test_schedule_flag_in_config_file_conflicts(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mega_batch = 4\n")
        code = run_cli("--config", str(cfg), *self.THEOREM_RUN, "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "drop --mega-batch" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus"])
    def test_complete_topology_is_floored(self, algo, tmp_path):
        # a complete graph has rho = 0, outside the analysis' range; the CLI floors it
        out = tmp_path / "r.json"
        code = run_cli("--algo", algo, "--dataset", "builtin:quadratic", "--m", "4",
                       "--topology", "complete", "--iters", "5", "--params", "theorem:0.5",
                       "--out", str(out), "--format", "json")
        assert code == 0
        metadata = json.loads(out.read_text())[0]["metadata"]
        assert metadata["rho"] < RHO_FLOOR
        eta = metadata["theorem_params"]["eta"]
        assert math.isfinite(eta) and eta > 0

    def test_manual_schedule_defaults(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("--algo", "dgfm-plus", "--dataset", "builtin:quadratic", "--m", "4",
                       "--iters", "5", "--eta", "0.01", "--period", "2", "--mega-batch", "3",
                       "--out", str(out), "--format", "json")
        assert code == 0
        config = json.loads(out.read_text())[0]["metadata"]["config"]
        assert (config["batch"], config["gossip_rounds"]) == (1, 1)


class TestReproducibility:
    def test_repeats_decompose_into_single_seeds(self, tmp_path):
        both = tmp_path / "both.csv"
        run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "20",
                "--eta", "0.05", "--delta", "0.01", "--seed", "7", "--repeats", "2",
                "--out", str(both))
        s7 = tmp_path / "s7.csv"
        run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "20",
                "--eta", "0.05", "--delta", "0.01", "--seed", "7", "--out", str(s7))
        s8 = tmp_path / "s8.csv"
        run_cli("--algo", "gfm", "--dataset", "builtin:quadratic", "--iters", "20",
                "--eta", "0.05", "--delta", "0.01", "--seed", "8", "--out", str(s8))
        merged = read_csv_rows(s7) + read_csv_rows(s8)
        combined = read_csv_rows(both)
        for a, b in zip(combined, merged):
            for key in ("algo", "seed", "iter", "zo_calls", "loss", "consensus_err"):
                assert a[key] == b[key]

    def test_rerun_is_bit_identical(self, tmp_path):
        args = ("--algo", "dgfm", "--dataset", "builtin:quadratic", "--dim", "4",
                "--m", "4", "--topology", "complete", "--iters", "25",
                "--eta", "0.02", "--delta", "0.01", "--seed", "3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        for ra, rb in zip(read_csv_rows(a), read_csv_rows(b)):
            for key in ("iter", "zo_calls", "comm_rounds", "loss", "consensus_err"):
                assert ra[key] == rb[key]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "algo = gfm\n"
            "dataset = builtin:quadratic\n"
            "iters = 10   # short run\n"
            "eta = 0.5\n"
            "delta = 0.01\n"
            "out = unused.csv\n"
        )
        out = tmp_path / "r.json"
        code = run_cli("--config", str(cfg), "--eta", "0.1", "--out", str(out),
                       "--format", "json")
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob[0]["metadata"]["config"]["eta"] == 0.1
        assert len(blob[0]["entries"]) == 10

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algoz = gfm\n")
        assert run_cli("--config", str(cfg), "--out", "x.csv") == 2

    @pytest.mark.parametrize("line", ["iters = x", "alg = gfm", "config = other.cfg", "iters 5"])
    def test_bad_key_or_value_is_config_error(self, line, tmp_path, capsys):
        # config lines parse like flags: typed, exact names, no nested files
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = gfm\ndataset = builtin:quadratic\neta = 0.1\n" + line + "\n")
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 2
        assert f"config error: cannot read config file {cfg}" in capsys.readouterr().err

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a short run\n\nalgo = gfm\n   \ndataset = builtin:quadratic\n"
                       "eta = 0.1  # step size\niters = 5\n")
        out = tmp_path / "r.csv"
        assert run_cli(f"--config={cfg}", "--out", str(out)) == 0
        assert len(read_csv_rows(out)) == 5

    def test_underscore_and_dash_keys_are_the_same_flag(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = gfm\ndataset = builtin:quadratic\neta = 0.1\n"
                       "iters = 20\nrecord_every = 10\n")
        out = tmp_path / "r.csv"
        assert run_cli("--config", str(cfg), "--out", str(out)) == 0
        assert [r["iter"] for r in read_csv_rows(out)] == [10, 20]


def test_module_runs_as_a_script(tmp_path):
    # python -m dgfm.cli exits with main's code
    src = str(Path(dgfm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "dgfm.cli", "--algo", "gfm", "--dataset",
                           "builtin:quadratic", "--eta", "0", "--out", str(tmp_path / "r.csv")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: eta must be positive")


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DGFM_OUT_DIR", str(tmp_path))
    code = run_cli("--algo", "gfm", "--dataset", "builtin:quadratic",
                   "--iters", "5", "--eta", "0.1", "--delta", "0.01",
                   "--out", "nested.csv")
    assert code == 0
    assert (tmp_path / "nested.csv").exists()


# the flags each algorithm uses beyond the common ones
ALGO_ARGS = {
    "dgfm": ("--m", "4"),
    "dgfm-plus": ("--m", "4", "--period", "5", "--mega-batch", "4"),
    "gfm": (),
    "gfm-plus": ("--period", "5", "--mega-batch", "4"),
}


@pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
def test_runs_keep_no_snapshots(algo, tmp_path, monkeypatch):
    # the CLI never selects an output iterate, so its runs hold no snapshots
    written = []
    monkeypatch.setattr(cli, "write_records", lambda records, *a, **kw: written.extend(records))
    code = run_cli("--algo", algo, "--dataset", "builtin:quadratic", *ALGO_ARGS[algo],
                   "--iters", "20", "--eta", "0.05", "--delta", "0.01",
                   "--repeats", "2", "--out", str(tmp_path / "r.csv"))
    assert code == 0
    assert len(written) == 2
    assert all(len(r.entries) == 20 and r.snapshots == [] for r in written)


def test_batch_reaches_dgfm(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli("--algo", "dgfm", "--dataset", "builtin:quadratic", "--m", "4",
                   "--topology", "complete", "--iters", "10", "--eta", "0.05",
                   "--delta", "0.01", "--batch", "3", "--out", str(out))
    assert code == 0
    assert read_csv_rows(out)[-1]["zo_calls"] == 2 * 4 * 3 * 10
