"""Every CLI output, byte for byte, pinned by its sha256.

The inputs are made here from fixed seeds, with no media checked in: an
8-bit 4:2:0 Y4M clip and a 10-bit 4:2:0 raw clip at 66x64, an 8-bit
4:0:0 raw clip at 65x64, a simulated training table, an encoder log and
two RD curves. The whole chain runs over them: `analyze` at one and two
threads, `train` with and without a holdout, `predict` to a file and to
stdout, `rc` with the sim and log encoders and with the model and noise
first passes, and `bdrate`. A manifest is hashed without `timestamp` and
`first_pass_throughput`, which vary from run to run.

A change that moves output bytes edits PINS and says which bytes moved
and why. When a pin fails, the test names every pinned value that moved,
its old value and its new one: a CSV's row count and column sums, the
numbers of a JSON output (for a manifest, those outside its config,
seeds and inputs), and a model's tree count, node count and sum of node
values. So a last-bit BLAS difference can be told from a real change.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from intrarc import cli, forest
from intrarc import simulator as sim
from intrarc import video_io as vio

from conftest import make_frame, write_raw

VOLATILE = ("timestamp", "first_pass_throughput")   # manifest keys that vary by run
ECHOES = ("config", "seeds", "inputs")              # manifest keys that echo the command

CLIPS = {   # input, its extra analyze flags
    "clip8": ("clip8.y4m", []),
    "clip10": ("clip10.yuv", ["--raw-geometry", "66x64:10:420"]),
    "clip400": ("clip400.yuv", ["--raw-geometry", "65x64:8:400"]),
}
RC = ["--features", "clip8_t1.csv", "--bitrate", "15000", "--resolution", "66x64"]


def _make_inputs():
    rng = np.random.default_rng(2024)
    vio.write_y4m("clip8.y4m", [make_frame(rng, 66, 64, index=i) for i in range(4)])
    write_raw("clip10.yuv", [make_frame(rng, 66, 64, bit_depth=10, index=i) for i in range(3)])
    write_raw("clip400.yuv", [make_frame(rng, 65, 64, chroma="400", index=i) for i in range(3)])
    X, y = sim.generate_dataset(400, sim.SimParams(noise_sigma=0.1), seed=5, pixels=66 * 64)
    forest.write_training_csv("train.csv", X, y)
    with open("log.csv", "w") as fh:
        fh.write("frame_index,q,bits\n")
        fh.writelines(f"{f},{q},{(64 - q) * (40 + 7 * f)}\n" for f in range(4) for q in range(64))
    with open("anchor.csv", "w") as fh:
        fh.write("bitrate,psnr_yuv\n1e5,30\n2e5,33.5\n4e5,36\n8e5,39.25\n")
    with open("test.csv", "w") as fh:
        fh.write("bitrate,psnr_yuv\n1.1e5,30.5\n2.3e5,33\n4.2e5,36.5\n9e5,39\n")


def _commands():
    for stem, (clip, flags) in CLIPS.items():
        for threads in (1, 2):
            yield ["analyze", "--input", clip, *flags, "--threads", threads,
                   "--out", f"{stem}_t{threads}.csv"]
    train = ["train", "--data", "train.csv", "--trees", 5, "--max-depth", 6, "--seed", 3]
    yield [*train, "--threads", 1, "--out", "model.ircf"]
    yield [*train, "--threads", 2, "--out", "model_t2.ircf"]
    yield [*train, "--threads", 1, "--holdout", 0.25, "--out", "model_holdout.ircf"]
    yield ["predict", "--model", "model.ircf", "--features", "clip8_t1.csv", "--qp", 30,
           "--out", "predict.csv"]
    for encoder in ("sim", "log:log.csv"):
        name = encoder[:3]
        yield ["rc", *RC, "--model", "model.ircf", "--encoder", encoder,
               "--trace", f"rc_{name}_model.csv", "--report", f"rc_{name}_model.json"]
        yield ["rc", *RC, "--first-pass", "noise", "--seed", 3, "--encoder", encoder,
               "--sim-noise", 0.2, "--sim-seed", 4,
               "--trace", f"rc_{name}_noise.csv", "--report", f"rc_{name}_noise.json"]
    yield ["bdrate", "--anchor", "anchor.csv", "--test", "test.csv", "--out", "bd.json"]


def _manifest_text(path):
    with open(path) as fh:
        payload = json.load(fh)
    for key in VOLATILE:
        payload.pop(key, None)
    return json.dumps(payload, indent=2, sort_keys=True)


def _numbers(tree, prefix=""):
    """The numeric leaves of parsed JSON by dotted path."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return {prefix: tree} if type(tree) in (int, float) else {}
    out = {}
    for key, value in items:
        out.update(_numbers(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _values(name, data: bytes) -> dict:
    """The values that a failing pin reports as moved."""
    if name.endswith(".ircf"):
        trees = forest.load(name).trees
        return {"trees": len(trees), "nodes": sum(t.n_nodes for t in trees),
                "value_sum": math.fsum(v for t in trees for v in t.value.tolist())}
    if name.endswith(".json"):
        payload = json.loads(data)
        if name.endswith(".manifest.json"):
            for key in VOLATILE + ECHOES:
                payload.pop(key, None)
        return _numbers(payload)
    text = data.decode()
    if name == "predict.stdout":   # rows without the file's header
        text = ",".join(cli.PREDICT_COLUMNS) + "\n" + text
    header, *rows = csv.reader(text.splitlines())
    sums = {col: math.fsum(float(v) for v in values) for col, values in zip(header, zip(*rows))}
    return {"rows": len(rows), **sums}


def run_chain(capsys) -> dict[str, tuple[str, dict]]:
    """Run the chain in the working directory; each output's sha256 and
    values by name."""
    _make_inputs()
    inputs = set(os.listdir())
    capsys.readouterr()
    for argv in _commands():
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK, argv
    capsys.readouterr()
    assert cli.main(["predict", "--model", "model.ircf", "--features", "clip8_t1.csv",
                     "--qp", "30"]) == cli.EXIT_OK
    outputs = {"predict.stdout": capsys.readouterr().out.encode()}
    for name in sorted(set(os.listdir()) - inputs):
        if name.endswith(".manifest.json"):
            outputs[name] = _manifest_text(name).encode()
        else:
            with open(name, "rb") as fh:
                outputs[name] = fh.read()
    return {name: (hashlib.sha256(data).hexdigest(), _values(name, data))
            for name, data in sorted(outputs.items())}


def _moved(name, pinned, got) -> list[str]:
    if pinned is None:
        return [f"{name}: not pinned, values {got[1]}"]
    if got is None:
        return [f"{name}: pinned but not written"]
    lines = []
    for key in sorted(pinned[1].keys() | got[1].keys()):
        old, new = pinned[1].get(key), got[1].get(key)
        if old != new:
            change = ""
            if old is not None and new is not None:
                rel = (new - old) / old if old else math.inf
                change = f" ({new - old:+.3g}, {rel:+.3g} relative)"
            lines.append(f"{name}: {key} {old!r} -> {new!r}{change}")
    return lines or [f"{name}: bytes moved, but none of its pinned values did"]


def test_every_output_matches_its_pin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = run_chain(capsys)
    assert got["clip8_t2.csv"][0] == got["clip8_t1.csv"][0]
    assert got["model_t2.ircf"][0] == got["model.ircf"][0]
    report = [line for name in sorted(PINS.keys() | got.keys())
              if PINS.get(name, (None,))[0] != got.get(name, (None,))[0]
              for line in _moved(name, PINS.get(name), got.get(name))]
    if report:
        pytest.fail("outputs moved from their pins:\n" + "\n".join(report), pytrace=False)


PINS = {   # output: (sha256, the values that a failing pin reports)
    "bd.json":
        ("6097fde91244fadc468f421fe881551f4319c4b992868934e88d094d5dff4c5f",
         {"bd_rate_percent": 9.625221647136728, "psnr_overlap.0": 30.5, "psnr_overlap.1": 39.0}),
    "bd.json.manifest.json":
        ("1e0f5bf53f69376211c9576a31ccb5e8ed1a77f88dc3913449e76ca03264a4b2", {}),
    "clip10_t1.csv":
        ("1a5f3432ba823d01bba0a37dbcebdd3091fea1a06e83288b937d31b94e2a825b",
         {"e_u": 1.090346637, "e_v": 1.072098469, "e_y": 1.187174652, "frame_index": 3.0,
          "l_u": 1.506387404, "l_v": 1.523659388, "l_y": 1.503676935, "rows": 3}),
    "clip10_t1.csv.manifest.json":
        ("bc59ed724e4f28abd7baba45f37764821d2a25855a4a6189f6cf71f106fd87d3", {}),
    "clip10_t2.csv":
        ("1a5f3432ba823d01bba0a37dbcebdd3091fea1a06e83288b937d31b94e2a825b",
         {"e_u": 1.090346637, "e_v": 1.072098469, "e_y": 1.187174652, "frame_index": 3.0,
          "l_u": 1.506387404, "l_v": 1.523659388, "l_y": 1.503676935, "rows": 3}),
    "clip10_t2.csv.manifest.json":
        ("10b88af5e78347d25e0b6193073ecfc5a6b397cfd8c5d02b1b759ca8381e3bf5", {}),
    "clip400_t1.csv":
        ("01498f8a16bd5474431e8315f9554f7e4141fd2eae4de8a164ca649a822b323b",
         {"e_u": 0.0, "e_v": 0.0, "e_y": 1.094134995, "frame_index": 3.0, "l_u": 1.5, "l_v": 1.5,
          "l_y": 1.510596719, "rows": 3}),
    "clip400_t1.csv.manifest.json":
        ("e945c069f27329d5d0cb7685f93f0d615991dedd97f51aabe26691fd8dde7ac1", {}),
    "clip400_t2.csv":
        ("01498f8a16bd5474431e8315f9554f7e4141fd2eae4de8a164ca649a822b323b",
         {"e_u": 0.0, "e_v": 0.0, "e_y": 1.094134995, "frame_index": 3.0, "l_u": 1.5, "l_v": 1.5,
          "l_y": 1.510596719, "rows": 3}),
    "clip400_t2.csv.manifest.json":
        ("af2075a63c6e2128a67ccc203720543e674574525a40ba1f742b96d639198f41", {}),
    "clip8_t1.csv":
        ("0cdfe761ba6bdf33fe9c30db83443b4de62cc0810da805c9c7e6178ed1c75ead",
         {"e_u": 1.464717609, "e_v": 1.451054973, "e_y": 1.575993284, "frame_index": 6.0,
          "l_u": 1.996616904, "l_v": 2.010743463, "l_y": 1.999790181, "rows": 4}),
    "clip8_t1.csv.manifest.json":
        ("20e39637f6032f66ff27e0bed85db9b10ce9063ed1a774f0dacc4cf25f2c25df", {}),
    "clip8_t2.csv":
        ("0cdfe761ba6bdf33fe9c30db83443b4de62cc0810da805c9c7e6178ed1c75ead",
         {"e_u": 1.464717609, "e_v": 1.451054973, "e_y": 1.575993284, "frame_index": 6.0,
          "l_u": 1.996616904, "l_v": 2.010743463, "l_y": 1.999790181, "rows": 4}),
    "clip8_t2.csv.manifest.json":
        ("fb06efb40861876d185fb955c48f552c468f411520b58a075995be9fc8eb08e7", {}),
    "model.ircf":
        ("75fe4389723b3c6fd3ce0605828affb536473e987f9e924895c2901b56cfb40b",
         {"nodes": 605, "trees": 5, "value_sum": 40656.10256097704}),
    "model.ircf.manifest.json":
        ("95249b44e00d42e5b6eb4f0b41bd5ae7fd026c9f89b7ab11347e0f017718cd13",
         {"importance.e_u": 0.00564101061408887, "importance.e_v": 0.001282797579278616,
          "importance.e_y": 0.37608115876910325, "importance.l_u": 0.0011844978980787935,
          "importance.l_v": 0.0020130588598612125, "importance.l_y": 0.0021917343801051525,
          "importance.q": 0.611605741899484, "model_bytes": 5481, "n_samples": 400}),
    "model_holdout.ircf":
        ("b60fba342e1d1e6f3b5f7b1af412cc4ace87e849efe4958d86fc06a1b081f925",
         {"nodes": 567, "trees": 5, "value_sum": 35681.49093676317}),
    "model_holdout.ircf.manifest.json":
        ("dc8163287f03a7e5bce4a809c8318955eb37bb96d4b98628fdeb97b947de1710",
         {"holdout.fraction": 0.25, "holdout.mae": 11.756622156098974, "holdout.n_test": 100,
          "holdout.n_train": 300, "holdout.r2": 0.9145168889880174,
          "importance.e_u": 0.0049472466233522645, "importance.e_v": 0.006495704220758797,
          "importance.e_y": 0.3599735271704836, "importance.l_u": 0.001481068173902821,
          "importance.l_v": 0.0011771125243083664, "importance.l_y": 0.007865980095049433,
          "importance.q": 0.6180593611921449, "model_bytes": 5139, "n_samples": 300}),
    "model_t2.ircf":
        ("75fe4389723b3c6fd3ce0605828affb536473e987f9e924895c2901b56cfb40b",
         {"nodes": 605, "trees": 5, "value_sum": 40656.10256097704}),
    "model_t2.ircf.manifest.json":
        ("cc91dabf0f24db9a1a2c01e1737127a844566c5ca21e2ce65d1f8292bf29149e",
         {"importance.e_u": 0.00564101061408887, "importance.e_v": 0.001282797579278616,
          "importance.e_y": 0.37608115876910325, "importance.l_u": 0.0011844978980787935,
          "importance.l_v": 0.0020130588598612125, "importance.l_y": 0.0021917343801051525,
          "importance.q": 0.611605741899484, "model_bytes": 5481, "n_samples": 400}),
    "predict.csv":
        ("0c7af9c7e8372ea310073a9c7052ae30a3118ccb5d1902c978fd259e6452e894",
         {"b_hat": 287.4908868, "frame_index": 6.0, "q": 120.0, "rows": 4}),
    "predict.csv.manifest.json":
        ("41c9ed6cf59fd0d7fd791247bebee499bb9f3d40c829b0f428b0c9375b855108", {}),
    "predict.stdout":
        ("02b59e2712a674509298b6be10025b78374f85a17738c61ea51ac4b1c88d7d45",
         {"b_hat": 287.4908868, "frame_index": 6.0, "q": 120.0, "rows": 4}),
    "rc_log_model.csv":
        ("e1da8e8154bdade9113304f6a92b95e2f692533f153b21333ec36f22ac606919",
         {"actual_bits": 3270.0, "b_hat": 202.9675532, "b_prime": 518.5, "deficit": 5366.0,
          "frame_index": 6.0, "q_bar": 182.59001709999998, "q_p": 128.0, "q_prime": 183.0,
          "rows": 4}),
    "rc_log_model.csv.manifest.json":
        ("2233d7340400770ec3a29ec4c280925e195a7152dc01b751a6ab7499c17d158b",
         {"summary.bitrate_deviation": 0.635, "summary.mean_qp": 45.75,
          "summary.target_bitrate": 15000.0, "summary.total_bits": 3270.0}),
    "rc_log_model.json":
        ("02e218c67e9d031db3867f045f5fc397f94bc7ba85088fcc8750ebf771e31e17",
         {"bitrate_deviation": 0.635, "mean_qp": 45.75, "target_bitrate": 15000.0,
          "total_bits": 3270.0}),
    "rc_log_noise.csv":
        ("ff7e73bda564d8efa9810d0311e8179e162a7ed2153fada478fdfc651f13be86",
         {"actual_bits": 4043.0, "b_hat": 2446.0, "b_prime": 792.0, "deficit": 7873.0,
          "frame_index": 6.0, "q_bar": 188.2380961, "q_p": 128.0, "q_prime": 167.0, "rows": 4}),
    "rc_log_noise.csv.manifest.json":
        ("413ee0eb301fae9b938076f1876657de9842070bbe44571b53cc5c0858774f24",
         {"summary.bitrate_deviation": 1.0215, "summary.mean_qp": 41.75,
          "summary.target_bitrate": 15000.0, "summary.total_bits": 4043.0}),
    "rc_log_noise.json":
        ("5963c4fd34dd9e739cec8b45e275b1c9fec7aad57bb614a8ae00b3a49a1c7738",
         {"bitrate_deviation": 1.0215, "mean_qp": 41.75, "target_bitrate": 15000.0,
          "total_bits": 4043.0}),
    "rc_sim_model.csv":
        ("31ed153deab9d519fb7dd7c83b317bb7dbf7b9685ca14e8078bf413ef59f7d2a",
         {"actual_bits": 1495.0, "b_hat": 202.9675532, "b_prime": 2449.5, "deficit": -1404.0,
          "frame_index": 6.0, "q_bar": 46.962764, "q_p": 128.0, "q_prime": 59.0, "rows": 4}),
    "rc_sim_model.csv.manifest.json":
        ("099ab95774db945dd7cbb3dc9a947332a08bd6dc3a342367254eac69ef47d5fd",
         {"summary.bitrate_deviation": -0.2525, "summary.mean_qp": 14.75,
          "summary.target_bitrate": 15000.0, "summary.total_bits": 1495.0}),
    "rc_sim_model.json":
        ("4f7304485d9eccf780a05aa585c9aa271a6c5c37c2f545bffd6dc95829963ed2",
         {"bitrate_deviation": -0.2525, "mean_qp": 14.75, "target_bitrate": 15000.0,
          "total_bits": 1495.0}),
    "rc_sim_noise.csv":
        ("35c7bf10cedd43ec9b7ed04aace79e3ce44e35177ec30b69a1c706fb6e2a9e60",
         {"actual_bits": 2189.0, "b_hat": 2446.0, "b_prime": 1429.5, "deficit": 1457.0,
          "frame_index": 6.0, "q_bar": 137.90115500000002, "q_p": 128.0, "q_prime": 137.0,
          "rows": 4}),
    "rc_sim_noise.csv.manifest.json":
        ("0b8b0fc0fa5e8aa54fc76c05b1044e9f91ea2b9b10a55f775d24477fee428da6",
         {"summary.bitrate_deviation": 0.0945, "summary.mean_qp": 34.25,
          "summary.target_bitrate": 15000.0, "summary.total_bits": 2189.0}),
    "rc_sim_noise.json":
        ("79ec868a394266f304e8124aad8526462d3c1e6549613af0911b53ed23714347",
         {"bitrate_deviation": 0.0945, "mean_qp": 34.25, "target_bitrate": 15000.0,
          "total_bits": 2189.0}),
}
