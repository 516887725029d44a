"""The constructive replay's output, pinned byte for byte.

Each digest is the sha256 of `io.format_json` of a list of outputs: for every
`gen_lemma_shape` variant at n = 7, 9 and 11 (seed 0), what its branch builder
returns for every k (its trace, mapped by `_json` onto the path or family
verdict beside the branch's sets or tag, or the violation it raises); and
`constructive_panconnect` for every pair of a random and an F-family
instance at n = 9 and a random one at n = 11. A refactor of the builders
must leave every digest unchanged; a deliberate change of output updates
them.
"""
import hashlib

import pytest

from rainbowpan.constructions import (
    BranchTrace,
    HypothesisViolation,
    constructive_panconnect,
    endpoint_bound_report,
    ham_path_k_path,
    join_partition_k_path,
    near_cycle_k_path,
    rotation_k_path,
    two_clique_k_path,
)
from rainbowpan.generate import (
    LEMMA_SHAPES,
    gen_extremal_F,
    gen_lemma_shape,
    gen_random_collection,
)
from rainbowpan.io import format_json

SHAPE_DIGESTS = {
    "lem2/main/n7": "1c23c2c559e20d8598053ce2fe5442c62bbbd3143bbcb27204e48da8d491fbe7",
    "lem2/main/n9": "c5109dd6a0c5df98d8f982f5c1982cd58639adf838a06a6f4b0af192c89e5b31",
    "lem2/main/n11": "9a0edccf60c7f3843f1c67e1752fe71285698082dfaff5aaa71e96a842a509ba",
    "lem3/b1/n7": "375e374d0f856a432f44558b3eb9b6a392552d7f2eed4a5fc1e994e8f3474833",
    "lem3/b1/n9": "87790d8f26c65331d48652a27c5345cb6708f78fd1f51c02b9905bd026c5ac9e",
    "lem3/b1/n11": "a466b6311056a82c464a6ceac653f8c8f52c286c22f3b0eceacf96e624e60dde",
    "lem3/b2/n7": "6b4a2d1f565975ded8f13c42bf5054a7572761610ee03f89ba2ed97910dd2687",
    "lem3/b2/n9": "4bc93e36ebfd9a86c5e39288aa1845e1de49b80ba7fae733ee4928a1243f4bfb",
    "lem3/b2/n11": "1b4ac84757fccdfd2bdca336a5afef2647e745e1614f93bc1752b73aadc8d7b2",
    "lem3/b3/n7": "dad8e120ca3b2b80d1dc4456c83535744b5ec0884336e0302d705489086af713",
    "lem3/b3/n9": "34a376c3690d6014f36f4cdfa50f412e182e4e705b17b8ba3df5aed86c15e6fd",
    "lem3/b3/n11": "a18566f4df686c26ea71b862275fff99bdca419820e481b34e7a9156fc27447f",
    "lem3/case3/n9": "7ff17a887362c9e21e3b33767953c24d8cec42851f018693d71ac81714f944a2",
    "lem3/main/n7": "2d1e08701ed3ea04ac50d0f9041965c14f9f8260b598e44f5b9cd70f1df37923",
    "lem3/main/n9": "08da8e63587703ab998e874abd8f264054ae91b2999c5cfd9dcf04656d926626",
    "lem3/main/n11": "8b179dad6f9495f8a0d6c98221cb27033771d68096a674e9f016ef113589da50",
    "lem5/lo-hi/n9": "85fdd452fd211864df4717075c6a610717f25d539e78860b2e5f8f0bcc36e415",
    "lem5/lo-lo/n7": "b5862c168411ed4a33d06e8e08520ed5839f80c0c8d150e29e6a5579cf259912",
    "lem5/lo-lo/n9": "be6bf8cdaffd950e9fc47629eb25cea098e749f210280441fb9e0bff236fc00c",
    "lem5/overlap/n9": "a53c7e572e4b8a88556859f75acb1af60620bf2bf289657653c7a3a91a2580c7",
    "lem6/a/n9": "824dd1eb3917ba499cacacb9cb11cf22b5beba9cd6123af888fca2ba8c757602",
    "lem6/b/n9": "232c2be8c8bb0b04d03e962b1fb4c0104493a67f0c10f355adbb44ecb7896d94",
    "lem6/c1/n9": "5a17334d405dfed4a36bbf7c5a3eecfe66943d51c0beab17c4333939b561abfa",
    "lem6/c2/n7": "0e27d712b83d74c83ff225e8091aeca2c72d24ccf8dca47f8af8578d3b51ae3b",
    "lem6/c2/n9": "e87b21830f56d97271d5f06f91656375683d2119b118d22f41e03c599f3ec644",
    "lem6/c2rec/n9": "cb9f9e80b97d20ee1574a43d275fb7777cccef184d186af460c46d79420d4afb",
    "lem7/cross/n7": "f8324a8a2709f8c08e1687876e3a28cb693900b1f99a84f0383e805e1e3b4cec",
    "lem7/cross/n9": "5fdb1c0a59eecf55d9f2792c91b3fedcbfe168a0fd4da9da34ea5c0bd6c939c6",
    "lem7/cross/n11": "939764de8e648017fa1bfd521fd545029e68ed3c6818d7a6b3b4f57b571cf587",
    "lem7/z/n7": "edc86b0184abc8b31603d6025ec0fd09a29da8e1b056b350614f280677793dbf",
    "lem7/z/n9": "a9f45821acf8835b1ffcada0965a41fac5b36c3e25026ad56e5cc484593dcd5c",
    "lem7/z/n11": "9d9c5389dd22b98bcdad0abca6f1c031fac70250d763dffc895b3572f03e4f76",
    "lem8/family/n7": "c4bd74216535081336edc6138ea50036869fa6c8a8f890014f9c357cbad72307",
    "lem8/family/n9": "42939946212920b711d6e1cba42d1c1d0f9a8975e4b75b3e7e9a68271d218162",
    "lem8/family/n11": "bbd346bdbd0360a5b1c36df64190644f419701776fdcb3664d7aad44d0876369",
    "lem8/inner/n7": "569b0be259e234163a58462c977d719cfdfa092bac899af448fbc58c274d3c61",
    "lem8/inner/n9": "3dd95162d0ec470bf8670ff0f2de67526f67dcc3ad5f411b6888c812bf3f607f",
    "lem8/inner/n11": "b3267a12cb53e1ca6bd719c54ef64a6bc0dfee460a3a630fe2214b94aae774c3",
    "lem8/witness/n7": "fe4ad7c4d1133ccd45508b5662c9620498c6ccbc0a8aa6be3db93ef83cf5f35d",
    "lem8/witness/n9": "698030a924c3f43e314aa5acf0fa37e340e4c40614d8f563a9c13f3f6f2b33c4",
    "lem8/witness/n11": "9e84ebb24c602476ecd496232d030ce04d4c0be142e5d6ec1f0ef4f0784739cf",
}

REPLAY_DIGESTS = {
    "F-9": "5c14b52fec02f1b2fdc52abf28a19ea030d8a4d5645a1c5c919913d6f20640ad",
    "random-11": "be6ca63bf87a6ba85d2b5ca8cd3839c4a115f8fdf053cfdd276d310662d932e7",
    "random-9": "600c298f2e5ba9c0ff737c676d8c94dd69c81f87afab5651b25c0f7ce8039042",
}


def _json(out):
    """A builder's result in the form the shape digests were taken over: a
    trace becomes [path or family verdict, the branch's sets or tag]."""
    if not isinstance(out, BranchTrace):
        return out.to_json_dict()
    data = out.to_json_dict()
    first = data["path"] if out.path is not None else data["sets"]["verdict"]
    if out.lemma == "rotation":
        return [first, data["sets"]]
    if out.lemma == "two_clique":
        return [first, out.case]
    if out.lemma == "join_partition":
        return [first, out.subcase]
    return [first, dict(data["sets"], case=out.case, subcase=out.subcase)]


def _outcome(builder, *args, **kwargs):
    try:
        return _json(builder(*args, **kwargs))
    except HypothesisViolation as hv:
        return {"violation": [hv.stage, hv.claim, hv.details, hv.evidence, hv.fatal]}


def shape_outputs(lemma, variant, n, seed):
    coll, h = gen_lemma_shape(lemma, n, seed, variant)
    if lemma == "lem5":
        # the report putting aside the fixture's color, then the first report,
        # by ascending free color, that no forbidden cycle rejects
        free = sorted(set(range(coll.m)) - set(h["path"].colors))
        outs = (_outcome(endpoint_bound_report, coll, h["path"], excluded_color=c) for c in free)
        workable = next(out for out in outs if out.get("violation", [0, 0])[1] != "cycle-free")
        return [
            _outcome(endpoint_bound_report, coll, h["path"], excluded_color=h["excluded_color"]),
            workable,
        ]
    if lemma == "lem8" and variant == "family":
        # the family has no removed vertex: one F vertex stands in for z
        h = dict(h, f=h["f"][1:], z=h["f"][0])
    calls = {
        "lem2": lambda k: (rotation_k_path, h["cycle"], h["x"], h["y"], k),
        "lem3": lambda k: (near_cycle_k_path, h["cycle"], h["x"], h["y"], h["z"], h["w"], k),
        "lem6": lambda k: (ham_path_k_path, h["path"], h["x"], h["y"], h["z"], k),
        "lem7": lambda k: (
            two_clique_k_path, h["u1"], h["u2"], h["x"], h["y"], h["z"], h["j"], k
        ),
        "lem8": lambda k: (join_partition_k_path, h["f"], h["i"], h["x"], h["y"], h["z"], k),
    }[lemma]
    outs = []
    for k in range(4, n):
        builder, *args = calls(k)
        outs.append(_outcome(builder, coll, *args))
    return outs


def shape_cases():
    for n in (7, 9, 11):
        for lemma, variants in sorted(LEMMA_SHAPES.items()):
            for variant in variants:
                try:
                    gen_lemma_shape(lemma, n, 0, variant)
                except ValueError:  # the shape does not exist at this order
                    continue
                yield f"{lemma}/{variant}/n{n}"


def digest(outputs) -> str:
    return hashlib.sha256(format_json(outputs).encode()).hexdigest()


REPLAY_INSTANCES = {
    "random-9": lambda: gen_random_collection(9, 8, 5, seed=0),
    "random-11": lambda: gen_random_collection(11, 10, 6, seed=0),
    "F-9": lambda: gen_extremal_F(9, seed=0),
}


def replay_outputs(name):
    coll = REPLAY_INSTANCES[name]()
    return [
        constructive_panconnect(coll, x, y).to_json_dict()
        for x in range(coll.n)
        for y in range(x + 1, coll.n)
    ]


def test_every_shape_is_pinned():
    assert sorted(shape_cases()) == sorted(SHAPE_DIGESTS)


@pytest.mark.parametrize("case", sorted(SHAPE_DIGESTS))
def test_shape_builder_outputs_unchanged(case):
    lemma, variant, n = case.split("/")
    assert digest(shape_outputs(lemma, variant, int(n[1:]), 0)) == SHAPE_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(REPLAY_INSTANCES))
def test_replay_reports_unchanged(name):
    assert digest(replay_outputs(name)) == REPLAY_DIGESTS[name]


if __name__ == "__main__":  # print the digests of the code at hand
    for case in sorted(shape_cases()):
        lemma, variant, n = case.split("/")
        print(f'    "{case}": "{digest(shape_outputs(lemma, variant, int(n[1:]), 0))}",')
    for name in sorted(REPLAY_INSTANCES):
        print(f'    "{name}": "{digest(replay_outputs(name))}",')
