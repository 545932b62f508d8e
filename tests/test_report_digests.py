"""Reports pinned across commits: sha256 digests of a fixed set of runs.

A refactor that keeps the random stream keeps these bytes.  A change that
alters the stream on purpose must update the digests, and its law tests must
show that the new sampler has the old law.
"""

import hashlib

import pytest

from trielab.cli import main

ENVS = {
    "markov": "kind = deterministic\nK = 2\nrow.1 = 0.9 0.1\nrow.2 = 0.2 0.8\n",
    "iid": "kind = deterministic\nK = 2\nrow.1 = 0.7 0.3\nrow.2 = 0.7 0.3\n",
    "dirichlet": "kind = dirichlet\nK = 2\nalpha.1 = 1 1\nalpha.2 = 1 1\n",
    "mixture": ("kind = mixture\nK = 2\nweights = 0.5 0.5\n"
                "comp.1.row.1 = 0.5 0.5\ncomp.1.row.2 = 0.5 0.5\n"
                "comp.2.row.1 = 0.9 0.1\ncomp.2.row.2 = 0.9 0.1\n"),
    "sparse3": "kind = deterministic\nK = 3\nrow.1 = 0.5 0.3 0.2\nrow.2 = 0.6 0 0.4\nrow.3 = 0 0.7 0.3\n",
}

SIMULATE = ["simulate", "--m-grid=64:8:4", "--reps=3", "--seed=7"]
RUNS = {
    **{f"simulate-{env}-j{j}.csv": (env, SIMULATE + [f"--j={j}"])
       for env in ("markov", "dirichlet", "mixture") for j in (1, 2, 8)},
    "simulate-dirichlet-j2.json": ("dirichlet", SIMULATE + ["--j=2", "--format=json"]),
    "power-iid.csv": ("iid", ["simulate", "--alpha=0.5", "--m-grid=256:4:4", "--reps=3",
                              "--seed=9"]),
    "profile-markov.csv": ("markov", ["profile", "--depth=8", "--theta-grid=-1:2:4"]),
    "profile-sparse3.json": ("sparse3", ["profile", "--depth=9", "--theta-grid=0.5:3:3",
                                         "--format=json"]),
    "profile-dirichlet.json": ("dirichlet", ["profile", "--depth=7", "--theta-grid=0.5:3:3",
                                             "--seed=3", "--format=json"]),
    "profile-mixture.csv": ("mixture", ["profile", "--depth=7", "--theta-grid=0:2:3",
                                        "--seed=4"]),
    "profile-markov-truncated.csv": ("markov", ["profile", "--depth=30", "--cap=1000",
                                                "--theta-grid=-1:2:4"]),
    "profile-sparse3-truncated.json": ("sparse3", ["profile", "--depth=40", "--cap=500",
                                                   "--theta-grid=0.5:3:3", "--format=json"]),
    "coupon-markov.csv": ("markov", ["coupon", "--depth=3", "--j=2", "--reps=4", "--seed=5"]),
    "coupon-dirichlet.json": ("dirichlet", ["coupon", "--depth=3", "--j=1", "--reps=4",
                                            "--seed=6", "--format=json"]),
}

DIGESTS = {
    "coupon-dirichlet.json":
        "eeebc5eed4f671ee714aa2bb81b55ec8ca4447a16e34591b03b77db516d86823",
    "coupon-markov.csv":
        "5c6f1efee139a6f114112e24e6d45f49597271f0e4cdc3b6c792ee718b2b8997",
    "power-iid.csv":
        "2c8e6a6f64e41e263230f025c3315d291f36258f99ee551e5d054313c092c409",
    "profile-dirichlet.json":
        "5161e1a23ec53379c287117e35a1c64cdf0f6495658b65c62fdeb83d2755f502",
    "profile-markov-truncated.csv":
        "272822130d63fb8fa98de1ec291075b01358ff860bc8b9e5335afe3e7686aa20",
    "profile-markov.csv":
        "d66f9214c44a2a2187a2c96656bf742e7041ffc7e1abe523df59240195236eee",
    "profile-mixture.csv":
        "f44c21ffbba80dbb918ba96b6080fc7ed0bb341e8f450c46103ff6693f5cd772",
    "profile-sparse3-truncated.json":
        "15daa3935b43e33e6b9872b6fbd3e5d038d4bfb3d01c376c448e9c4397858da8",
    "profile-sparse3.json":
        "fd023e0a781531f58597a277f3f1e64bb5f3aee9fc7bbde29a7a508b8f9f7cfe",
    "simulate-dirichlet-j1.csv":
        "ea10dc02bb764a0e86b96784af7901034cc12e40727546b124f1cb3a36b1676e",
    "simulate-dirichlet-j2.csv":
        "1974432f60210325ad8279df6235eb3dc3bd693a994ad2ba867ad6976c78a36a",
    "simulate-dirichlet-j2.json":
        "02b8e52d546f0d24231bce49a6caebe28abf270c8a37021c154f63f2c4f75381",
    "simulate-dirichlet-j8.csv":
        "2a795d370f846425f5bb0bc8c54d0deb19afe6aa72428ccff7c9ac845bbacca7",
    "simulate-markov-j1.csv":
        "e582709d063eb3c90aa02d37e6081abdb2249e487fa32b10652cdfa7d2e87aa7",
    "simulate-markov-j2.csv":
        "af46cace80629c9396e5bb8eb69aa230b809b595c57a0fa0b507030d6f4fa711",
    "simulate-markov-j8.csv":
        "89c8d6c6b99f51d3fbc1498c96203ed1a1f6ffb03fbe0d5ffb11ec23588d1b08",
    "simulate-mixture-j1.csv":
        "41626868c185515415574b3eea68d24afa091a85bf9a03d799f6d1fa8a1c427d",
    "simulate-mixture-j2.csv":
        "49f802b1cb2e925f042228517cf00382f913ec30f17111c39108e61f3f0af544",
    "simulate-mixture-j8.csv":
        "41f84014b79eca94eee01802f936f24da9a5c7fc01af7e9dc3cc8ad5dbdd7422",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path):
    env, args = RUNS[name]
    env_path = tmp_path / f"{env}.env"
    env_path.write_text("[env]\n" + ENVS[env])
    out = tmp_path / name
    assert main(args + [f"--env={env_path}", f"--out={out}"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
