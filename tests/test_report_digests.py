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
    # rows 0.1 + Dirichlet(2, ..., 2), normalized (drawn once from seed 5)
    "markov5": ("kind = deterministic\nK = 5\n"
                "row.1 = 0.1289307323877242 0.16903463079437608 0.33683650679373855 "
                "0.14535713166240968 0.2198409983617516\n"
                "row.2 = 0.1443316687542516 0.2790377051504044 0.23731742356498217 "
                "0.1737090577722475 0.16560414475811425\n"
                "row.3 = 0.2644812084139027 0.347628521525195 0.1063318609803962 "
                "0.15320719857930953 0.12835121050119658\n"
                "row.4 = 0.1930426860008564 0.11718127365353748 0.1148886358862805 "
                "0.2208288492187748 0.35405855524055085\n"
                "row.5 = 0.08430621553704996 0.12360474931102113 0.22739802733678252 "
                "0.19564441902663124 0.3690465887885152\n"),
    "sparse3": "kind = deterministic\nK = 3\nrow.1 = 0.5 0.3 0.2\nrow.2 = 0.6 0 0.4\nrow.3 = 0 0.7 0.3\n",
    # no saturation prediction: a converge at j = 1 writes its report and exits 4
    "crossed": ("kind = mixture\nK = 2\nweights = 0.5 0.5\n"
                "comp.1.row.1 = 0.2 0.8\ncomp.1.row.2 = 0.8 0.2\n"
                "comp.2.row.1 = 0.8 0.2\ncomp.2.row.2 = 0.2 0.8\n"),
}

SIMULATE = ["simulate", "--m-grid=64:8:4", "--reps=3", "--seed=7"]
CONVERGE = ["converge", "--j=1", "--m-grid=64:4:4", "--reps=5", "--seed=8"]
# 33-point grids through theta = 0 on the mixture and on K = 5: the cases
# where a drift taken in another order changes the last bits
SPECTRAL = {"markov": ["spectral", "--theta-grid=-1:3:5"],
            "dirichlet": ["spectral", "--theta-grid=0.5:3:4"],
            "mixture": ["spectral", "--theta-grid=-2:6:33"],
            "markov5": ["spectral", "--theta-grid=-2:6:33"]}
# name: (environment, arguments, exit code)
RUNS = {
    **{f"simulate-{env}-j{j}.csv": (env, SIMULATE + [f"--j={j}"], 0)
       for env in ("markov", "dirichlet", "mixture") for j in (1, 2, 8)},
    **{f"simulate-sparse3-j{j}.csv": ("sparse3", SIMULATE + [f"--j={j}"], 0) for j in (1, 2)},
    **{f"spectral-{env}.{fmt}": (env, args + [f"--format={fmt}"], 0)
       for env, args in SPECTRAL.items() for fmt in ("csv", "json")},
    **{f"converge-{env}-j1.{fmt}": (env, CONVERGE + [f"--format={fmt}"], code)
       for env, code in (("mixture", 0), ("crossed", 4)) for fmt in ("csv", "json")},
    "simulate-dirichlet-j2.json": ("dirichlet", SIMULATE + ["--j=2", "--format=json"], 0),
    "power-iid.csv": ("iid", ["simulate", "--alpha=0.5", "--m-grid=256:4:4", "--reps=3",
                              "--seed=9"], 0),
    "profile-markov.csv": ("markov", ["profile", "--depth=8", "--theta-grid=-1:2:4"], 0),
    "profile-sparse3.json": ("sparse3", ["profile", "--depth=9", "--theta-grid=0.5:3:3",
                                         "--format=json"], 0),
    "profile-dirichlet.json": ("dirichlet", ["profile", "--depth=7", "--theta-grid=0.5:3:3",
                                             "--seed=3", "--format=json"], 0),
    "profile-mixture.csv": ("mixture", ["profile", "--depth=7", "--theta-grid=0:2:3",
                                        "--seed=4"], 0),
    "profile-markov-truncated.csv": ("markov", ["profile", "--depth=30", "--cap=1000",
                                                "--theta-grid=-1:2:4"], 0),
    "profile-sparse3-truncated.json": ("sparse3", ["profile", "--depth=40", "--cap=500",
                                                   "--theta-grid=0.5:3:3", "--format=json"], 0),
    "coupon-markov.csv": ("markov", ["coupon", "--depth=3", "--j=2", "--reps=4", "--seed=5"], 0),
    "coupon-dirichlet.json": ("dirichlet", ["coupon", "--depth=3", "--j=1", "--reps=4",
                                            "--seed=6", "--format=json"], 0),
}

DIGESTS = {
    "converge-crossed-j1.csv":
        "9c06d8ed604acb09691bd7dc9456c78cec14e679b086db6c9b50667b26e6a515",
    "converge-crossed-j1.json":
        "29041f159d692527f642478cabb22692b02b3f81742429dd172ae0a14e53f931",
    "converge-mixture-j1.csv":
        "5f7d965c550e3076ede53b8f471b607a2c7768847e10914c4dc9aa07109b316e",
    "converge-mixture-j1.json":
        "ccabb41bf5f17da419a6d190b8c76bdfe629c9fdac3c36faecd87e589d102ac0",
    "coupon-dirichlet.json":
        "2d75a229a4f2473f62714152f05c43fefac506bb250e6c38ef24859dd0f5f912",
    "coupon-markov.csv":
        "be7fa03e33ef405ca539433b71b6841a192f54014412cf2afc7bf93a14eae497",
    "power-iid.csv":
        "dd36735026e97e09c7199a8aada23f7bf3860e9f75bb10aad535f4e78f467ac7",
    "profile-dirichlet.json":
        "27450eedeca7b311f0c845a410144998b3194121d80da7fcc50af28281eaf2e4",
    "profile-markov-truncated.csv":
        "7d440db3c3a79e961a1669911be3d37d025f640a59995e4a72fcad9a42be5be9",
    "profile-markov.csv":
        "857bbe782452d8c78d76fb4de3bc71ec4a2005dbdb53588b707319cf18d6f6a1",
    "profile-mixture.csv":
        "fc42252bde7e6f4d6a5ba5c6a364ed03725efc6084ff87a3088d467ee79fd9b0",
    "profile-sparse3-truncated.json":
        "b19f8b5d981618986ccb3fd0c5fcf88e4f5c17cecb05504c687e442d85915e64",
    "profile-sparse3.json":
        "6300c66907973e000a239b11469bc2d2235a0ff8e56e3564325f50f3e7a55eb2",
    "simulate-dirichlet-j1.csv":
        "2cdcf217475e2ff9cef4a09019611c9acc4f26ff8bfbfc412e28ea8f75775555",
    "simulate-dirichlet-j2.csv":
        "7e99983e1ba6315e98c9910b8532c28351b13cbc2fbb454c1bcae174f2b8f367",
    "simulate-dirichlet-j2.json":
        "55c02a5c37b664fb432beda7e9e3eecd8bd4d610f8133fa7dbde3a3a5320371d",
    "simulate-dirichlet-j8.csv":
        "c13f0fb78cfea4bb2f805f20fb40a23a5cd424043be9808dd012dc3ad4fdabc1",
    "simulate-markov-j1.csv":
        "6223b3ab3d3d4944c906fe097ed2e643082f8bb60a863d79eb121f9e4e4cc2e3",
    "simulate-markov-j2.csv":
        "b958c95a47101f496f7618816db50141fd6a8e80187599554ceb5a1fb6134326",
    "simulate-markov-j8.csv":
        "ab44204bcabfcbb43a88c92afc0ee2a6c12c193eb3cabe6ad5e0edfc3df1ee0d",
    "simulate-mixture-j1.csv":
        "2b3cdc9a898b012f2b8e3632c260e463e8d466d91e40d552dbdc74c3767194c1",
    "simulate-mixture-j2.csv":
        "0615a683994389cb033b767c32a7eb8c395b38b75811dc6216eb0e1ce4f2327e",
    "simulate-mixture-j8.csv":
        "9dd5cd82f5b398b9ceff3774084569f51e8ccc57296c4b01613f1674387d7dd4",
    "simulate-sparse3-j1.csv":
        "bd3112219eee1ee913755f044b44e7fc52ad6b1d8aba1be5c0a2f11f8c7eb4b6",
    "simulate-sparse3-j2.csv":
        "f87691550c11a4eae10587f4e3c726e9d6548ea633fe34313f58171eb35eb23a",
    "spectral-markov5.csv":
        "0d55d661f199e6eafa3f9ae28714915247f3e95c6afbd9e3a0a5d89c01b099f5",
    "spectral-markov5.json":
        "79111f1abe2caa17da3f387ffa0b415cefe28d1997205bd6677d771cc8541d61",
    "spectral-mixture.csv":
        "baa9620712ed02598abfa35263fa3ee774844702448a1a5e523d938be3729b3b",
    "spectral-mixture.json":
        "8c4d82c6e8f30685e65e1aca849de883072f4de407b9ee9386079f5089739cd5",
    "spectral-dirichlet.csv":
        "4505177bbe71fb77d862933da48106683ad0827714e2b45876fe6836d06ace64",
    "spectral-dirichlet.json":
        "b82e79e614b60e7484a211b74e7f6e0a88f559511bcf1925e275eca03d150d99",
    "spectral-markov.csv":
        "376233124a6737c280e26c5a367ae3264389566c59216ebd602de5eea5fb22af",
    "spectral-markov.json":
        "1ec6f6f1d8fd9935a2930bb6238e0b5035839fb0887091b3d5ac9012fff06ec9",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path):
    env, args, code = RUNS[name]
    env_path = tmp_path / f"{env}.env"
    env_path.write_text("[env]\n" + ENVS[env])
    out = tmp_path / name
    assert main(args + [f"--env={env_path}", f"--out={out}"]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
