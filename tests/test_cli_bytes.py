"""Every command writes the same bytes for the same inputs and seeds.

Each output is pinned by its sha256: stdout, every file a command writes and
each result file with its `timing` field dropped.  The commands run in a
fresh directory with relative paths, because the config echo holds the path
arguments.  The factor files are those of left_right_cayley(Z_8, [1, 2],
[1, 4]) with the four actions given as left translations, and a bipartite
4-cycle for the hypergraph product.
"""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

from qbp import decoder, jsonio
from qbp.cli import cli_dispatch

from fixtures import strip_timing

M = 8
TABLE = [[(g + x) % M for x in range(M)] for g in range(M)]
INPUTS = {
    "left.json": {"v0": M, "v1": M,
                  "edges": sorted([g, (g - a) % M] for g in range(M) for a in (1, 2))},
    "right.json": {"v0": M, "v1": M,
                   "edges": sorted([g, (g + b) % M] for g in range(M) for b in (1, 4))},
    "cycle.json": {"v0": 4, "v1": 4,
                   "edges": sorted([i, (i + d) % 4] for i in range(4) for d in (0, 1))},
    "group.json": {"order": M, "mul": TABLE, "label": "Z8"},
    "actions.json": {"left_v0": TABLE, "left_v1": TABLE, "right_v0": TABLE, "right_v1": TABLE},
    "syndrome_z.json": {"length": M, "support": [0, 1, 2, 5]},
    "syndrome_x.json": {"length": M, "support": [2, 3]},
    "error.json": {"length": 2 * M, "support": [1, 9]},
}

# (run name, arguments, files it writes: "raw" bytes or a "result" file
# whose timing is dropped).  Later runs read the complex the first writes.
RUNS = [
    ("construct", ["construct", "--left", "left.json", "--right", "right.json",
                   "--group", "group.json", "--actions", "actions.json",
                   "--out", "complex.json"], {"complex.json": "raw"}),
    ("construct_hgp", ["construct", "--left", "cycle.json", "--right", "cycle.json",
                       "--out", "hgp.json"], {"hgp.json": "raw"}),
    ("certify_exhaustive", ["certify", "--graph", "left.json", "--c", "1/4",
                            "--epsilon", "1/2", "--out", "certify_exhaustive.json"],
     {"certify_exhaustive.json": "result"}),
    ("certify_sampled", ["certify", "--graph", "left.json", "--c", "1/4", "--epsilon", "1/2",
                         "--mode", "sampled", "--trials", "8", "--seed", "1",
                         "--out", "certify_sampled.json"], {"certify_sampled.json": "result"}),
    ("code_json", ["code", "--complex", "complex.json"], {}),
    ("code_alist", ["code", "--complex", "complex.json", "--format", "alist"], {}),
    ("code_prefix", ["code", "--complex", "complex.json", "--out-prefix", "exported/z8"],
     {"exported/z8.hx.alist": "raw", "exported/z8.hz.alist": "raw",
      "exported/z8.json": "raw"}),
    ("code_hgp", ["code", "--complex", "hgp.json"], {}),
    ("distance", ["distance", "--complex", "complex.json", "--out", "distance.json"],
     {"distance.json": "result"}),
    ("decode_z", ["decode", "--complex", "complex.json", "--syndrome", "syndrome_z.json",
                  "--epsilon", "1/30", "--side", "z", "--trace", "trace_z.jsonl",
                  "--out", "decode_z.json"],
     {"decode_z.json": "result", "trace_z.jsonl": "raw"}),
    ("decode_x", ["decode", "--complex", "complex.json", "--syndrome", "syndrome_x.json",
                  "--epsilon", "1/30", "--side", "x", "--trace", "trace_x.jsonl",
                  "--out", "decode_x.json"],
     {"decode_x.json": "result", "trace_x.jsonl": "raw"}),
    ("simulate_weight", ["simulate", "--complex", "complex.json", "--error-weight", "2",
                         "--trials", "6", "--epsilon", "1/30", "--seed", "1",
                         "--out", "simulate_weight.json"], {"simulate_weight.json": "result"}),
    ("simulate_iid", ["simulate", "--complex", "complex.json", "--iid-p", "1/20",
                      "--trials", "20", "--epsilon", "1/30", "--seed", "1",
                      "--out", "simulate_iid.json"], {"simulate_iid.json": "result"}),
    ("simulate_sweep", ["simulate", "--complex", "complex.json", "--error-weight", "1",
                        "--sweep", "--epsilon", "1/30", "--out", "simulate_sweep.json"],
     {"simulate_sweep.json": "result"}),
    ("diagnose", ["diagnose", "--complex", "complex.json", "--error", "error.json",
                  "--epsilon", "1/2", "--out", "diagnose.json"], {"diagnose.json": "result"}),
]

EXPECTED = {
    "certify_exhaustive:certify_exhaustive.json":
        "6c5a42a7bc782928aa8aa68c4c8a2fb1d6dc62f3974877cdb3af65f628bb4bf1",
    "certify_exhaustive:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "certify_sampled:certify_sampled.json":
        "c6fa607511b1610c52dc7e16aca4cde7e9ad66e9ea17e679b625d2d2ab1fb054",
    "certify_sampled:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "code_alist:stdout":
        "bc63c84ea5c6f4bc663f1a35b28487c5cdaef888719b42e1c2f05555bd128d9d",
    "code_hgp:stdout":
        "2f01841ba356996172e134372104b27389ab5cd465615d8e85bc90eee32fb3a7",
    "code_json:stdout":
        "d512b5a5b161b712a5aee5854207fb7bfdca17ef5ee8b4ecefca9de15cc58adc",
    "code_prefix:exported/z8.hx.alist":
        "4c7e9d3e3eb5eae667a3cb84b55de0e967e87de8e607fb1e012e072a18f34fb2",
    "code_prefix:exported/z8.hz.alist":
        "01eafa5a848e52f922fa04ee265d32c30523c551866e16fa2ffb527738a3ed69",
    "code_prefix:exported/z8.json":
        "90a57406efd77f751af9261ab71dab62ef07626c79e0357ce92ce5ccaac3e53e",
    "code_prefix:stdout":
        "d09fdc3c346af1a49c94688fcf2b133b578fee738ac38cfd35e75a0fe81bde4d",
    "construct:complex.json":
        "3800a6d7a54f0bc399c2da28cae6b17cd7132883183c8c7e7c884cea6ba38ca9",
    "construct:stdout":
        "3698a92af336c38717f318359d9a03b5cdac429f84f3defeb71ee2a650a79194",
    "construct_hgp:hgp.json":
        "68e965bbbeb8b8ececa650943eea8307a758814648601ce3bfc75655d9b88d03",
    "construct_hgp:stdout":
        "b3677c2e86cb2325d7c508fb95d78ca40ae43287903d4d270a76bce5fef34225",
    "decode_x:decode_x.json":
        "4c4536e0cc148610439c8f7e2aca46308fc99b20a05e234bb5c902c1130f8b4d",
    "decode_x:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "decode_x:trace_x.jsonl":
        "e3b66b99d012537a8fdc2f76df0178d43717caaf5acd7b36f077cef5ef331d3b",
    "decode_z:decode_z.json":
        "c8c0b33cc5d109161c669721b06e57b493a5bbdb64bb6090c7e7e2ab8275ecc8",
    "decode_z:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "decode_z:trace_z.jsonl":
        "e3ff1db521eee6463a8a448dd43c7b95bdeaa701a9657e1e1580d41d3d598755",
    "diagnose:diagnose.json":
        "94b412d383862eeb584dcdb9f6db9cd7f4d49909eb783753da9584f35e65974d",
    "diagnose:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "distance:distance.json":
        "e14b0be6a4d7ca5f9092da0b103862687732481d6db28bce1730d784f053e106",
    "distance:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_iid:simulate_iid.json":
        "b41ba63eba504ed97e0fd13bd6c84ffdfb60201ba67ff0bc2aa2d09d32255739",
    "simulate_iid:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_sweep:simulate_sweep.json":
        "9fe63d4633492d555a5d0a755a625392dc8c2892b4723ca370eb1201b0eb4fac",
    "simulate_sweep:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate_weight:simulate_weight.json":
        "cf44bc9c3c7bfad64816da4bd43aff2eb6dbe7218df0b077cc40062da339696b",
    "simulate_weight:stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def run_all(directory, after_run=lambda run: None):
    """Output name -> sha256 of its bytes, for every run of RUNS in `directory`;
    `after_run(run)` is called as each run returns."""
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        for name, obj in INPUTS.items():
            (directory / name).write_text(json.dumps(obj, sort_keys=True))
        for run, argv, files in RUNS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli_dispatch(argv)
            assert status == 0, f"{run} exited with {status}"
            after_run(run)
            digests[f"{run}:stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            for path, kind in files.items():
                text = (directory / path).read_text()
                if kind == "result":
                    text = strip_timing(text)
                digests[f"{run}:{path}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("cli_bytes"))


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("output", sorted(EXPECTED))
def test_output_bytes(digests, output):
    assert digests[output] == EXPECTED[output]


def test_each_command_hashes_each_input_once(tmp_path, monkeypatch):
    hashed, per_run = Counter(), {}
    digest = jsonio.file_digest

    def counted(path):
        hashed[str(path)] += 1
        return digest(path)

    def after_run(run):
        per_run[run] = dict(hashed)
        hashed.clear()

    monkeypatch.setattr(jsonio, "file_digest", counted)
    assert run_all(tmp_path, after_run) == EXPECTED
    for run, argv, _ in RUNS:
        inputs = {argv[i + 1] for i, arg in enumerate(argv)
                  if arg in ("--left", "--right", "--group", "--actions", "--graph",
                             "--complex", "--syndrome", "--error")}
        assert per_run[run] == dict.fromkeys(inputs, 1), run


def test_decode_keeps_no_flip_sets(tmp_path, monkeypatch):
    # Neither the result nor the trace writes the flipped cells.
    configs = []
    for name in ("decode", "decode_x"):
        def spy(cpx, syndrome, config, _decode=getattr(decoder, name)):
            configs.append(config)
            return _decode(cpx, syndrome, config)
        monkeypatch.setattr(decoder, name, spy)
    assert run_all(tmp_path) == EXPECTED
    assert len(configs) == 2 and not any(config.keep_flip_sets for config in configs)
