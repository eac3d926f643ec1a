"""CLI tests: subcommand wiring, exit codes, artifact outputs."""

import argparse
import json
import struct
import warnings

import numpy as np
import pytest

from tiermem.bench import (
    MAX_HIST_BINS,
    emit_score_histograms,
    run_growth_sweep,
    run_ingest,
    run_oracle,
    run_query_replay,
)
from tiermem.cli import build_parser, main
from tiermem.retrieval import load_queries_jsonl, retrieve
from tiermem.synth import event_direction, generate_stream, load_stream_spec
from tiermem.tiers import FrameEntry, TierConfig, TokenRecord, new_memory
from tiermem.traceio import RawFrame, RawToken, load_trace, write_trace
from tiermem.vecspace import ProbeBank


@pytest.fixture()
def workspace(tmp_path):
    spec_doc = {
        "dim": 16,
        "frames": 20,
        "tokens_per_frame": 4,
        "events": [[5, 1, 1.0]],
        "noise_sigma": 0.1,
        "rng_seed": 3,
    }
    spec_path = tmp_path / "stream.json"
    spec_path.write_text(json.dumps(spec_doc))
    spec = load_stream_spec(spec_path)

    direction = event_direction(spec, 0).tolist()
    lateral = [0.0] * 16
    lateral[1] = 1.0
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text(
        json.dumps(
            {
                "id": "distant",
                "arrival_time": 19.0,
                "tokens": [direction],
                "rho": 2.0,
                "top_k": 3,
                "ground_truth_frames": [5],
            }
        )
        + "\n"
        + json.dumps({"id": "recent", "arrival_time": 19.0, "tokens": [lateral]})
        + "\n"
    )

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "short_cap_frames": 2,
                "mid_cap_frames": 4,
                "token_budget": 24,
                "tokens_per_frame_max": 4,
            }
        )
    )
    return tmp_path, spec_path, queries_path, config_path


def test_synth_writes_readable_trace(workspace, capsys):
    tmp, spec_path, _, _ = workspace
    out = tmp / "stream.trace"
    assert main(["synth", "--synth-spec", str(spec_path), "--out", str(out)]) == 0
    assert "20 frames" in capsys.readouterr().out
    frames = load_trace(out)
    assert len(frames) == 20
    assert frames[0].dim == 16


def test_synth_refuses_noise_that_overflows_and_writes_nothing(tmp_path, capsys):
    spec_path = tmp_path / "loud.json"
    spec_path.write_text(json.dumps({"dim": 4, "frames": 3, "tokens_per_frame": 2,
                                     "noise_sigma": 1e308}))
    out = tmp_path / "loud.trace"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--synth-spec", str(spec_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: frame 0: noise_sigma 1e+308 ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_ingest_from_spec_and_trace_agree(workspace, capsys):
    tmp, spec_path, _, config_path = workspace
    trace = tmp / "stream.trace"
    main(["synth", "--synth-spec", str(spec_path), "--out", str(trace)])
    report_a = tmp / "a.json"
    report_b = tmp / "b.json"
    base = ["--config", str(config_path), "--seed", "4"]
    assert main(["ingest", "--synth-spec", str(spec_path), "--report", str(report_a)] + base) == 0
    assert main(["ingest", "--trace", str(trace), "--report", str(report_b)] + base) == 0
    capsys.readouterr()
    a = json.loads(report_a.read_text())
    b = json.loads(report_b.read_text())
    assert a["rows"] == b["rows"]
    assert a["summary"] == b["summary"]
    assert a["kind"] == "ingest"
    assert len(a["rows"]) == 20


def test_the_pipeline_never_reads_the_per_token_layer(workspace, monkeypatch, capsys):
    # Ingest, queries, every bench run and the command line read frames as
    # columns: with each per-token view and record made to raise, they all
    # still run, so deleting that layer leaves them working.
    def refused(*args, **kwargs):
        raise AssertionError("the per-token layer was read")

    for cls in (FrameEntry, RawFrame):
        monkeypatch.setattr(cls, "tokens", property(refused))
    for cls in (TokenRecord, RawToken):
        monkeypatch.setattr(cls, "__init__", refused)
    tmp, spec_path, queries_path, config_path = workspace
    spec = load_stream_spec(spec_path)
    frames = generate_stream(spec)
    config = TierConfig.from_file(config_path)
    bank = ProbeBank.generated(spec.dim, n=5, seed=0)
    queries = load_queries_jsonl(queries_path)

    by_columns, by_triples = new_memory(config, bank), new_memory(config, bank)
    for f in frames:
        by_columns.ingest_frame(f.timestamp, f)
        by_triples.ingest_frame(f.timestamp, list(f))
    assert by_columns.state_digest() == by_triples.state_digest()
    assert by_columns.recount_tokens() == by_columns.total_tokens
    assert by_columns.mid and by_columns.long
    snap = by_columns.freeze()
    assert sum(e.token_count for e in snap.all_frames()) == by_columns.total_tokens
    assert not all(retrieve(snap, by_columns.gate_stats, q).gated_short_only for q in queries)
    by_columns.thaw()

    for stage in ("full", "s1", "s2"):
        report = run_query_replay(frames, queries, config, bank, f"stage={stage}",
                                  compare_oracle=True)
        assert len(report.rows) == len(queries)
    assert run_ingest(frames, config, bank).summary["frames"] == len(frames)
    assert len(run_oracle(frames, queries).rows) == len(queries)
    assert len(run_growth_sweep([4, 8], config, bank).rows) == 2
    assert emit_score_histograms(frames, config, bank, bins=5).rows

    trace = tmp / "stream.trace"
    source = ["--trace", str(trace)]
    for argv in (["synth", "--synth-spec", str(spec_path), "--out", str(trace)],
                 ["ingest", *source, "--config", str(config_path)],
                 ["replay", *source, "--queries", str(queries_path), "--compare-oracle"],
                 ["oracle", *source, "--queries", str(queries_path)],
                 ["hist", *source, "--bins", "5"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_ingest_prints_json_without_report_flag(workspace, capsys):
    _, spec_path, _, config_path = workspace
    assert main(["ingest", "--synth-spec", str(spec_path), "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "ingest"
    assert doc["summary"]["frames"] == 20


def test_ingest_random_prior_changes_state(workspace, capsys):
    _, spec_path, _, config_path = workspace
    def digest(variant):
        args = ["ingest", "--synth-spec", str(spec_path), "--config", str(config_path)]
        if variant:
            args += ["--variant", variant]
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)["summary"]["state_digest"]

    assert digest(None) == digest("prior=bank")
    assert digest(None) != digest("prior=random")


def test_replay_report_and_gate_variants(workspace, capsys):
    tmp, spec_path, queries_path, config_path = workspace
    report_path = tmp / "replay.json"
    code = main(
        [
            "replay",
            "--synth-spec", str(spec_path),
            "--queries", str(queries_path),
            "--config", str(config_path),
            "--report", str(report_path),
            "--compare-oracle",
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "replay"
    assert [row["query_id"] for row in doc["rows"]] == ["distant", "recent"]
    distant = doc["rows"][0]
    assert distant["recall"] == 1.0
    assert distant["oracle_top_k"][0] == 5
    for row in doc["rows"]:
        assert row["max_selected_timestamp"] <= row["freeze_timestamp"]

    assert main(
        [
            "replay",
            "--synth-spec", str(spec_path),
            "--queries", str(queries_path),
            "--config", str(config_path),
            "--variant", "gate=always",
        ]
    ) == 0
    gated = json.loads(capsys.readouterr().out)
    assert all(row["result"]["gated_short_only"] for row in gated["rows"])


def test_replay_reports_are_deterministic_excluding_timings(workspace, capsys):
    tmp, spec_path, queries_path, config_path = workspace
    paths = [tmp / "r1.json", tmp / "r2.json"]
    for path in paths:
        assert main(
            [
                "replay",
                "--synth-spec", str(spec_path),
                "--queries", str(queries_path),
                "--config", str(config_path),
                "--report", str(path),
            ]
        ) == 0
    capsys.readouterr()
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("timings")
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_oracle_subcommand(workspace, capsys):
    _, spec_path, queries_path, _ = workspace
    assert main(
        ["oracle", "--synth-spec", str(spec_path), "--queries", str(queries_path),
         "--exclude-recent", "2"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "oracle"
    assert doc["rows"][0]["top_k"][0] == 5
    assert doc["summary"]["exclude_most_recent"] == 2


def test_oracle_and_ingest_take_the_same_report_and_seed_arguments():
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices

    def report_and_seed(name):
        return {action.dest: (action.help, action.type, action.default, action.metavar)
                for action in subcommands[name]._actions if action.dest in ("report", "seed")}

    assert report_and_seed("oracle") == report_and_seed("ingest")
    assert sorted(report_and_seed("oracle")) == ["report", "seed"]
    assert all(help for help, *_ in report_and_seed("oracle").values())


def test_sweep_subcommand_writes_csv(workspace, capsys):
    tmp, _, _, config_path = workspace
    csv_path = tmp / "sweep.csv"
    assert main(
        ["sweep", "--lengths", "2,4,8", "--config", str(config_path), "--dim", "16",
         "--tokens-per-frame", "4", "--csv", str(csv_path)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sweep"
    assert [row["length"] for row in doc["rows"]] == [2, 4, 8]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "length,final_tokens,peak_tokens"
    assert len(lines) == 4


def test_oversized_spec_and_sweep_dim_exit_1(workspace, tmp_path, capsys):
    # Sizes past the spec bounds fail before any array is allocated.
    tmp, _, _, config_path = workspace
    spec_path = tmp_path / "huge.json"
    spec_path.write_text(json.dumps({"dim": 2**40, "frames": 2, "tokens_per_frame": 4}))
    capsys.readouterr()
    assert main(["ingest", "--synth-spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dim 1099511627776 exceeds") and err.count("\n") == 1
    assert main(["sweep", "--lengths", "2", "--config", str(config_path), "--dim", str(2**40)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dim 1099511627776 exceeds") and err.count("\n") == 1
    assert main(["sweep", "--lengths", "2", "--config", str(config_path), "--dim", "2048",
                 "--tokens-per-frame", "1024"]) == 1
    assert capsys.readouterr().err.startswith("error: tokens_per_frame x dim = 2097152 exceeds")


def test_hist_subcommand_writes_csvs(workspace, capsys):
    tmp, spec_path, _, config_path = workspace
    frame_csv = tmp / "frame.csv"
    token_csv = tmp / "token.csv"
    assert main(
        ["hist", "--synth-spec", str(spec_path), "--config", str(config_path),
         "--bins", "8", "--frame-csv", str(frame_csv), "--token-csv", str(token_csv)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "hist"
    assert doc["summary"]["bins"] == 8
    for path in (frame_csv, token_csv):
        lines = path.read_text().splitlines()
        assert lines[0] == "lo,hi,count"
        assert 2 <= len(lines) <= 9


@pytest.mark.parametrize(
    "args, message",
    [(["oracle", "--exclude-recent", "-1"], "error: exclude_most_recent must be >= 0, got -1"),
     (["hist", "--bins", str(MAX_HIST_BINS + 1)], f"error: bins must be in [1, {MAX_HIST_BINS}]")],
)
def test_out_of_range_counts_exit_1(workspace, capsys, args, message):
    _, spec_path, queries_path, _ = workspace
    capsys.readouterr()
    extra = ["--queries", str(queries_path)] if args[0] == "oracle" else []
    assert main([*args, "--synth-spec", str(spec_path), *extra]) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith(message) and err.count("\n") == 1


def test_probes_file_flag(workspace, tmp_path, capsys):
    _, spec_path, _, config_path = workspace
    probes_path = tmp_path / "probes.json"
    ProbeBank.generated(16, n=3, seed=9).to_file(probes_path)
    assert main(
        ["ingest", "--synth-spec", str(spec_path), "--config", str(config_path),
         "--probes", str(probes_path)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["probes"] == str(probes_path)
    assert doc["inputs"]["probe_count"] == 3


def test_exit_codes(workspace, tmp_path, capsys):
    tmp, spec_path, queries_path, config_path = workspace
    # Usage errors and validation errors exit 1.
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["replay", "--synth-spec", str(spec_path)]) == 1
    assert main(
        ["replay", "--synth-spec", str(spec_path), "--queries", str(queries_path),
         "--variant", "stage=s9"]
    ) == 1
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{]")
    assert main(["ingest", "--synth-spec", str(spec_path), "--config", str(bad_config)]) == 1
    assert main(["sweep", "--lengths", "2,x"]) == 1
    # Missing files exit 2.
    assert main(["ingest", "--trace", str(tmp_path / "missing.trace")]) == 2
    assert main(["synth", "--synth-spec", str(spec_path),
                 "--out", str(tmp_path / "no" / "dir" / "t.trace")]) == 2
    # Help exits 0.
    assert main(["--help"]) == 0
    assert main(["replay", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc", [{"keep_fraction": "0.5"}, {"scene_threshold": None}, {"semantic_weight": "x"}]
)
def test_config_field_of_wrong_type_exits_1(workspace, tmp_path, capsys, doc):
    _, spec_path, _, _ = workspace
    config_path = tmp_path / "typed.json"
    config_path.write_text(json.dumps(doc))
    assert main(["ingest", "--synth-spec", str(spec_path), "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "field",
    [
        {"arrival_time": "x"},
        {"top_k": "five"},
        {"top_k": 2.7},
        {"top_k": True},
        {"rho": None},
        {"tokens": [["a"] * 16]},
        {"tokens": [[1.0] * 16, [1.0]]},
        {"ground_truth_frames": ["x"]},
        {"ground_truth_frames": [3, -1]},  # a frame index is non-negative
    ],
)
def test_malformed_query_field_exits_1(workspace, tmp_path, capsys, field):
    _, spec_path, _, _ = workspace
    queries_path = tmp_path / "bad.jsonl"
    queries_path.write_text(json.dumps({"arrival_time": 19.0, "tokens": [[1.0] * 16], **field}))
    assert main(["replay", "--synth-spec", str(spec_path), "--queries", str(queries_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {queries_path}:1: {next(iter(field))} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field",
    [
        {"dim": "abc"},
        {"frames": 2.5},
        {"rng_seed": False},
        {"noise_sigma": "x"},
        {"segments": [[0, "a", 0]]},
        {"events": [[5, 1]]},
    ],
)
def test_malformed_spec_field_exits_1(workspace, tmp_path, capsys, field):
    _, _, queries_path, _ = workspace
    spec_doc = {"dim": 16, "frames": 20, "tokens_per_frame": 4, **field}
    spec_path = tmp_path / "bad_spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    assert main(["replay", "--synth-spec", str(spec_path), "--queries", str(queries_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: stream spec {spec_path}: {next(iter(field))}")
    assert err.count("\n") == 1


def test_ingest_of_a_trace_with_a_nan_timestamp_exits_1(workspace, tmp_path, capsys):
    tmp, spec_path, _, _ = workspace
    trace = tmp_path / "stream.trace"
    assert main(["synth", "--synth-spec", str(spec_path), "--out", str(trace)]) == 0
    data = trace.read_bytes()
    frame_bytes = 20 + 4 * (4 + 4 * 16)  # frame header, four dim-16 tokens
    offset = 20 + 3 * frame_bytes + 8  # the fourth frame's timestamp
    trace.write_bytes(data[:offset] + struct.pack("<d", float("nan")) + data[offset + 8:])
    capsys.readouterr()
    assert main(["ingest", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frame 3 timestamp is nan")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_ingest_of_a_trace_with_an_inf_token_component_exits_1(tmp_path, capsys, value):
    # The one error line, and no RuntimeWarning from normalizing the token.
    trace = tmp_path / "inf.trace"
    vectors = np.ones((1, 4), dtype=np.float32)
    vectors[0, 2] = value
    write_trace(str(trace), [RawFrame(0, 0.0, vectors=vectors, rows=[0], cols=[0])])
    capsys.readouterr()
    assert main(["ingest", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == "error: frame 0: token scores must be finite\n"


def test_probe_file_with_a_non_integer_dim_exits_1(workspace, tmp_path, capsys):
    _, spec_path, _, _ = workspace
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"dim": "x", "probes": [{"vector": [1.0] * 16}]}))
    assert main(["ingest", "--synth-spec", str(spec_path), "--probes", str(probes)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: probe file {probes}: dim must be an integer")
    assert err.count("\n") == 1


# Values no field of a query, spec or config file accepts.
_BAD_JSON_VALUES = ("x", True, {"a": 1}, ["x"], 1e999)


def _corrupt_json(rng, doc: dict, fields: tuple, required: tuple) -> dict:
    """doc with a required field deleted (one case in three) or a field set
    to a value no field accepts."""
    doc = dict(doc)
    if required and rng.integers(3) == 0:
        del doc[required[rng.integers(len(required))]]
    else:
        doc[fields[rng.integers(len(fields))]] = _BAD_JSON_VALUES[rng.integers(len(_BAD_JSON_VALUES))]
    return doc


def test_cli_corruption_fuzz(workspace, tmp_path, capsys):
    # Corrupted traces and malformed JSON fields never end in a traceback:
    # a failing run exits 1 (2 for I/O) with exactly one `error:` line.
    # Truncations and malformed fields always fail; a byte flip may land in
    # a vector component and leave a valid trace, so a flip may also succeed,
    # and so may a `true` among a vector's numbers, which numpy reads as 1.
    tmp, spec_path, queries_path, config_path = workspace
    trace = tmp / "stream.trace"
    assert main(["synth", "--synth-spec", str(spec_path), "--out", str(trace)]) == 0
    data = trace.read_bytes()
    frame_bytes = 20 + 4 * (4 + 4 * 16)  # frame header, four dim-16 tokens
    headers = [*range(20), *(20 + f * frame_bytes + i for f in range(20) for i in range(20))]
    spec_doc = json.loads(spec_path.read_text())
    config_doc = json.loads(config_path.read_text())
    query_doc = json.loads(queries_path.read_text().splitlines()[0])
    bad_trace, bad_json = tmp_path / "bad.trace", tmp_path / "bad.json"
    replay = ["replay", "--trace", str(trace), "--queries", str(queries_path),
              "--config", str(config_path)]
    probe_doc = {"dim": 16, "probes": [{"label": f"p{i}", "vector": [1.0 + i] * 16}
                                       for i in range(2)]}
    outcomes = {}
    for case in range(240):
        rng = np.random.default_rng([case, 11])
        kind = ("flip", "truncate", "query", "spec", "config")[case % 5] if case < 200 else "probe"
        mixed_bool = False
        if kind == "flip":
            # Half the flips land in the file or frame headers, where the
            # format's structure lives; the rest anywhere.
            targets = headers if case % 10 < 5 else range(len(data))
            corrupted = bytearray(data)
            for at in rng.choice(targets, size=int(rng.integers(1, 4))):
                corrupted[at] ^= int(rng.integers(1, 256))
            bad_trace.write_bytes(bytes(corrupted))
            argv = ["replay", "--trace", str(bad_trace), *replay[3:]]
        elif kind == "truncate":
            bad_trace.write_bytes(data[: int(rng.integers(len(data)))])
            argv = ["ingest", "--trace", str(bad_trace)]
        elif kind == "query":
            if case % 10 == 7:
                # One component of the token row.
                value = _BAD_JSON_VALUES[rng.integers(len(_BAD_JSON_VALUES))]
                row = list(query_doc["tokens"][0])
                row[rng.integers(len(row))] = value
                bad, mixed_bool = {**query_doc, "tokens": [row]}, value is True
            else:
                fields = ("arrival_time", "tokens", "rho", "top_k", "lambda",
                          "ground_truth_frames")
                bad = _corrupt_json(rng, query_doc, fields, ("arrival_time", "tokens"))
            bad_json.write_text(json.dumps(bad) + "\n")
            argv = [*replay[:3], "--queries", str(bad_json), *replay[5:]]
        elif kind == "spec":
            if case % 10 == 8:
                # A size far past the spec bounds, which would not fit in memory.
                size = ("dim", "frames", "tokens_per_frame")[rng.integers(3)]
                bad = {**spec_doc, size: 2 ** int(rng.integers(30, 63))}
            else:
                bad = _corrupt_json(rng, spec_doc, tuple(spec_doc) + ("segments",),
                                    ("dim", "frames", "tokens_per_frame"))
            bad_json.write_text(json.dumps(bad))
            argv = ["ingest", "--synth-spec", str(bad_json)]
        elif kind == "config":
            bad = _corrupt_json(rng, config_doc, ("keep_fraction", "semantic_weight",
                                                  "scene_threshold", "grid_size",
                                                  "long_quota_per_frame", *config_doc), ())
            bad_json.write_text(json.dumps(bad))
            argv = [*replay[:5], "--config", str(bad_json)]
        else:
            # dim, probes or one component of one vector, with each bad value in turn.
            field = ("dim", "probes", "vector")[case % 3]
            value = _BAD_JSON_VALUES[case // 3 % len(_BAD_JSON_VALUES)]
            bad = json.loads(json.dumps(probe_doc))
            if field == "vector":
                bad["probes"][rng.integers(2)]["vector"][rng.integers(16)] = value
                mixed_bool = value is True
            else:
                bad[field] = value
            bad_json.write_text(json.dumps(bad))
            argv = ["ingest", "--trace", str(trace), "--probes", str(bad_json)]
        capsys.readouterr()
        code = main(argv + ["--report", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code in ((0, 1, 2) if kind == "flip" or mixed_bool else (1, 2)), (case, kind, err)
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == (code != 0), (case, err)
        outcomes[kind, code] = outcomes.get((kind, code), 0) + 1
    assert outcomes.get(("flip", 1), 0) > 0 and outcomes.get(("truncate", 1), 0) == 40


_LONG_INT = "1" + "0" * 4999  # past Python's 4300-digit limit on reading an int


@pytest.mark.parametrize(
    "kind, content",
    [(kind, content) for kind in ("config", "spec", "probe", "query")
     for content in ("not_utf8", "deep", "long_int", "unknown")]
    + [("query", "not_utf8_line_2"), ("config", "bad_field")],
)
def test_cli_refuses_unreadable_json_naming_the_file(workspace, tmp_path, capsys, kind, content):
    # Bytes that are not UTF-8, 200,000 nested brackets and a 5000-digit
    # integer ended in a traceback in every JSON format; an unknown field
    # passed in a query line and a probe file. Each now exits 1 with one
    # error line that names the file (and a query's line).
    tmp, spec_path, queries_path, config_path = workspace
    docs = {
        "config": (json.loads(config_path.read_text()), "token_budget"),
        "spec": (json.loads(spec_path.read_text()), "frames"),
        "probe": ({"dim": 16, "probes": [{"label": "p", "vector": [1.0] * 16}]}, "dim"),
        "query": (json.loads(queries_path.read_text().splitlines()[0]), "top_k"),
    }
    doc, int_field = docs[kind]
    text = json.dumps(doc)
    data = {
        "not_utf8": b"\xff\xfe" + text.encode(),
        "not_utf8_line_2": (text + "\n" + text.replace('"distant"', '"\xff"') + "\n")
        .encode("latin-1"),
        "deep": b"[" * 200_000,
        "long_int": json.dumps({**doc, int_field: 0}).replace(f'"{int_field}": 0',
                                                              f'"{int_field}": {_LONG_INT}').encode(),
        "unknown": json.dumps({**doc, "bogus": 1}).encode(),
        "bad_field": json.dumps({**doc, "short_cap_frames": "x"}).encode(),
    }[content]
    path = tmp_path / f"bad-{kind}.json"
    path.write_bytes(data)
    source = ["--synth-spec", str(spec_path)]
    argv = {
        "config": ["ingest", *source, "--config", str(path)],
        "spec": ["ingest", "--synth-spec", str(path)],
        "probe": ["ingest", *source, "--probes", str(path)],
        "query": ["replay", *source, "--queries", str(path)],
    }[kind]
    capsys.readouterr()
    assert main(argv + ["--report", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    where = f"{path}:{2 if content == 'not_utf8_line_2' else 1}:" if kind == "query" else f"{path}:"
    want = {"unknown": "unknown fields ['bogus']",
            "bad_field": "short_cap_frames must be an integer, got 'x'"}.get(content, "invalid JSON")
    assert lines[0].endswith(f"{where} {want}"), err


@pytest.mark.parametrize("kind", ["spec", "query", "probe"])
def test_an_integral_float_loads_where_the_spec_query_and_probe_formats_read_an_integer(
        workspace, tmp_path, capsys, kind):
    # README: the spec, query and probe formats take an integral float such
    # as 2.0 for an integer. Each loads it as the integer, and the run's
    # report is the report of the integer.
    _, spec_path, queries_path, _ = workspace
    spec_doc = json.loads(spec_path.read_text())
    query_doc = json.loads(queries_path.read_text().splitlines()[0])
    probe_doc = {"dim": 16, "probes": [{"label": "p", "vector": [1.0] + [0.0] * 15}]}
    doc, field, value = {"spec": (spec_doc, "frames", 12), "query": (query_doc, "top_k", 5),
                         "probe": (probe_doc, "dim", 16)}[kind]
    reports = []
    for number in (value, float(value)):
        path = tmp_path / f"{kind}-{type(number).__name__}.json"
        path.write_text(json.dumps({**doc, field: number}))
        source = ["--synth-spec", str(path if kind == "spec" else spec_path)]
        argv = {"spec": ["ingest", *source],
                "query": ["replay", *source, "--queries", str(path)],
                "probe": ["ingest", *source, "--probes", str(path)]}[kind]
        report = tmp_path / f"report-{type(number).__name__}.json"
        assert main(argv + ["--report", str(report)]) == 0
        loaded = {"spec": lambda: load_stream_spec(path).frames,
                  "query": lambda: load_queries_jsonl(path)[0].top_k,
                  "probe": lambda: ProbeBank.from_file(path).dim}[kind]()
        assert type(loaded) is int and loaded == value
        doc_out = json.loads(report.read_text())
        doc_out.pop("timings")
        doc_out.pop("inputs")
        reports.append(doc_out)
    assert reports[0] == reports[1]
    capsys.readouterr()


def _refused(argv, capsys, message):
    """Run argv and check it exits 1 with one error line, holding message,
    and no traceback."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert "Traceback" not in err and len(lines) == 1, err
    assert message in lines[0], err


@pytest.mark.parametrize(
    "case, message",
    [("config float", "mid_cap_frames must be an integer, got 16.0"),
     ("config array", "expected a JSON object"),
     ("spec array", "expected a JSON object"),
     ("probe array", "expected a JSON object"),
     ("query array", ":1: expected a JSON object"),
     ("truth not a list", ":1: ground_truth_frames must be a list"),
     ("arrival past float64", ":1: arrival_time must be a finite real number"),
     ("negative segment seed", "segment direction seeds must be non-negative"),
     ("negative event seed", "event seeds must be non-negative"),
     ("seed x", "argument --seed: 'x' is not an integer"),
     ("seed 2**64", "argument --seed: seed must fit in an unsigned 64-bit integer")],
)
def test_documented_input_rules_exit_1_with_one_error_line(workspace, tmp_path, capsys, case,
                                                           message):
    _, spec_path, queries_path, _ = workspace
    spec_doc = json.loads(spec_path.read_text())
    query_doc = json.loads(queries_path.read_text().splitlines()[0])
    path = tmp_path / "input.json"
    source = ["--synth-spec", str(spec_path)]
    kind, _, what = case.partition(" ")
    if kind in ("config", "spec", "probe", "query"):
        path.write_text('{"mid_cap_frames": 16.0}' if what == "float" else "[1, 2]")
        argv = {"config": ["ingest", *source, "--config", str(path)],
                "spec": ["ingest", "--synth-spec", str(path)],
                "probe": ["ingest", *source, "--probes", str(path)],
                "query": ["replay", *source, "--queries", str(path)]}[kind]
    elif kind in ("truth", "arrival"):
        # 10**400 is read as an int, which no float64 holds.
        arrival = "1" + "0" * 400 if kind == "arrival" else "19.0"
        truth = ', "ground_truth_frames": 3' if kind == "truth" else ""
        tokens = json.dumps(query_doc["tokens"])
        path.write_text(f'{{"arrival_time": {arrival}, "tokens": {tokens}{truth}}}')
        argv = ["replay", *source, "--queries", str(path)]
    elif kind == "negative":
        key = "segments" if what.startswith("segment") else "events"
        value = [[0, 20, -1]] if key == "segments" else [[5, -1, 1.0]]
        path.write_text(json.dumps({**spec_doc, key: value}))
        argv = ["ingest", "--synth-spec", str(path)]
    else:
        argv = ["ingest", *source, "--seed", "x" if what == "x" else str(2**64)]
    _refused(argv, capsys, message)


def test_a_401_digit_arrival_time_is_quoted_in_one_short_error_line(workspace, tmp_path,
                                                                   monkeypatch, capsys):
    # The error line quotes the rejected value elided, not its 401 digits.
    _, spec_path, queries_path, _ = workspace
    tokens = json.dumps(json.loads(queries_path.read_text().splitlines()[0])["tokens"])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.jsonl").write_text(f'{{"arrival_time": 1{"0" * 400}, "tokens": {tokens}}}')
    capsys.readouterr()
    assert main(["replay", "--synth-spec", str(spec_path), "--queries", "q.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: q.jsonl:1: arrival_time must be a finite real number, got 1")
    assert err.count("\n") == 1 and len(err.rstrip("\n")) <= 120, err


def test_ingest_of_an_all_empty_trace_without_probes_exits_1(tmp_path, capsys):
    # No token gives the bank a dimension, and the trace's header dim is not
    # read as one.
    trace = tmp_path / "empty.trace"
    empty = RawFrame(0, 0.0, vectors=np.zeros((0, 8), dtype=np.float32), rows=[], cols=[])
    write_trace(str(trace), [empty, RawFrame(1, 1.0, vectors=np.zeros((0, 8), dtype=np.float32),
                                             rows=[], cols=[])], dim=8)
    _refused(["ingest", "--trace", str(trace)], capsys,
             "error: cannot infer the embedding dimension; pass --probes")
