"""Byte gate: sha256 digests of the CSVs that the shipped configs and
`fedsim verify` write.

Every synthetic config runs at full length, every desk config for 40
rounds (two 20-round windows), the grid for 960 rounds (two 480-round
windows), the desk_fedavg client shards go through `partition-report`,
the two benchmark verify cases run at 200 trials, and one small verify
case per pattern (12 clients, 300 trials): about 3.3 s on a 2-CPU host.
A refactor must keep every digest. A deliberate change to the
numerics re-records the digests it moves, in the same change, with the
reason. verify_sca_small was re-recorded when `fedsim verify` lost its
`--p-active` and `--p-inactive` flags: the case had set 0.7 and 0.1, and
now runs at ScaScheduler's defaults, 0.8 and 0.05.

The digests are per seed on one CPU's math kernels: they were recorded
with OpenBLAS's SkylakeX kernel and numpy's AVX-512 dispatch on an
AVX-512 Xeon. With an AVX2-only CPU's kernels, 6 of the 20 move in the
last bits (the five synthetic runs and desk_scaffold), because BLAS dot
products sum in another order and numpy's SIMD exp and log round
differently from the C library's. glibc's log and exp pick FMA or
non-FMA code by CPU as well.
"""

import hashlib
from pathlib import Path

import pytest

from fedsim.cli import main
from fedsim.participation import PATTERNS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SYNTHETIC = ("synthetic_amp_fedavg", "synthetic_amp_scaffold", "synthetic_fedavg",
             "synthetic_fedprox", "synthetic_scaffold")
DESK = ("desk_amp_fedavg", "desk_amp_scaffold", "desk_fedavg", "desk_fedprox", "desk_scaffold")

# case -> (fedsim arguments without --out, the file they write)
CASES = {
    **{name: (["run", "--config", str(CONFIGS / f"{name}.cfg")], "run.csv")
       for name in SYNTHETIC},
    **{name: (["run", "--config", str(CONFIGS / f"{name}.cfg"), "--override", "rounds=40"],
              "run.csv") for name in DESK},
    "grid_synthetic_scaffold": (["grid", "--config", str(CONFIGS / "grid_synthetic_scaffold.cfg"),
                                 "--override", "rounds=960"], "grid.csv"),
    "partition_desk_fedavg": (["partition-report", "--config", str(CONFIGS / "desk_fedavg.cfg")],
                              "partition.csv"),
    "verify_cyclic": (["verify", "--pattern", "cyclic", "--n", "250", "--k-bar", "5", "--s", "10",
                       "--trials", "200", "--seed", "0"], "verify.csv"),
    "verify_sca": (["verify", "--pattern", "sca", "--n", "100", "--k-bar", "5", "--s", "10",
                    "--g", "3", "--trials", "200", "--seed", "0"], "verify.csv"),
    **{f"verify_{pattern}_small": (["verify", "--pattern", pattern, "--n", "12", *args,
                                    "--trials", "300", "--seed", "4"], "verify.csv")
       for pattern, args in (
           ("iid", ["--s", "3"]),
           ("cyclic", ["--k-bar", "3", "--s", "2"]),
           ("grouped_cyclic", ["--k-bar", "3", "--s", "2", "--g", "2"]),
           ("regularized", ["--window-p", "4"]),
           ("sca", ["--k-bar", "3", "--s", "2", "--g", "2"]))},
}

# case -> (exit code, sha256 of the file written). Both sca cases exit 1:
# qbar_variance_closed_form applies the cyclic closed form to sca, whose
# availability draws make the window-weight variance larger.
EXPECTED = {
    "synthetic_amp_fedavg": (0, "48e4c5da2a2651aeaccec165fa0720fc1726880f6fe4a9925bc1af250b3d2d30"),
    "synthetic_amp_scaffold": (0, "1738299aa3818fbcd51ee0149bca3891a44592f5c527f00f7aa14f6306ee5c5d"),
    "synthetic_fedavg": (0, "f1d2f4a307ff5d53af5bbf577a213e0c8485ec38ca7196b91a8cb55c1f98e9f7"),
    "synthetic_fedprox": (0, "c5df36acb82c74d852c82a0d6e9b722faa91901897dc21d25c7250f2271d17e8"),
    "synthetic_scaffold": (0, "a899c6829fc206cdda27f78e9ac9a4cff5c7ede8934677c05bfa63948ac3f557"),
    "desk_amp_fedavg": (0, "98ce2f30d5b4ab00b2ecf88cbc355e4ea0869608fafc6976a5ce5870dc2aefb0"),
    "desk_amp_scaffold": (0, "af60004cae77f6c3af2f9e1295ad90c9300905370a637216d09bfbf12eec5048"),
    "desk_fedavg": (0, "4ffe19291a47590b3ca3b4b65de09e56cacb31c35b89d371cc8c0099a81a2ec0"),
    "desk_fedprox": (0, "86be72137e61827a2c632648046bedb05d420d8d6774c40ec3a343be33253120"),
    "desk_scaffold": (0, "5b60215daeac06ac9c91deb5d211f58baa6968f721b0bb80819ae314afdaadb4"),
    "grid_synthetic_scaffold": (0, "dcbc8ae6b61e80c64aef67fd720144894a349e47b64172351e5a54244c0135df"),
    "partition_desk_fedavg": (
        0, "2eb3c9678aee0bc63d6d6970874e1c899de4fd2adbcb2e30ab9b10df08abeab4"),
    "verify_cyclic": (0, "7ad63c78030043398ed55e0119207157e2d32306e9b4c5ec110fa3bb769ff102"),
    "verify_sca": (1, "178aa9b3d3998966ac0158aab6bd19ae5c59c0829970b78b91709b1661a96f2b"),
    "verify_iid_small": (0, "37a6fbd2d5b001da11a3fc2cb0353223e52099dd08718a23cf222f84102e1aac"),
    "verify_cyclic_small": (0, "cf90d6ce5cee44db15e83e6ba566c94a5c01be8ff6110634c9960f0685c69b8d"),
    "verify_grouped_cyclic_small": (
        0, "90f24d81997027102eeaf156a67d649e75bf887067173e7df1a988775f6a293e"),
    "verify_regularized_small": (
        0, "87e60bb8311698cf119353b13a8e9df5c0a7672a8f07d9e85e74634e265f8418"),
    "verify_sca_small": (1, "7d151842d1878087255a2858d31d5397e59682011e48111ada3ce8069283eea8"),
}


def produce(case: str, out_dir: Path) -> tuple[int, str]:
    """Run one case into out_dir; return its exit code and the sha256 of the
    file it wrote."""
    args, written = CASES[case]
    rc = main([*args, "--out", str(out_dir)])
    return rc, hashlib.sha256((out_dir / written).read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_unchanged(case, tmp_path, capsys):
    rc, digest = produce(case, tmp_path)
    capsys.readouterr()
    assert (rc, digest) == EXPECTED[case]


def test_every_pattern_has_a_small_verify_digest():
    # A pattern added without its own report digest fails here.
    small = {case.removeprefix("verify_").removesuffix("_small")
             for case in CASES if case.startswith("verify_") and case.endswith("_small")}
    assert sorted(small) == sorted(PATTERNS)
    assert set(EXPECTED) == set(CASES)
