"""End-to-end checks of the command line interface: schema validation,
envelope determinism, exit codes, and drawing output."""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbody import cli
from okbody.cli import (
    build_parser,
    fr_str,
    main,
    parse_rational,
    parse_series,
    parse_surface,
    serialize_series,
)
from okbody.errors import InputError
from okbody.flagval import Flag
from okbody.glseries import GradedSeries
from okbody.polyform import DEGREE_BOUND, FormSpan, HomogeneousForm

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FLAGSHIP = str(CORPUS / "p2_except_x2x3.json")

# the CLI examples of README.md, with the sha256 of their envelopes and of
# the two drawings; a change of any output byte has to update these
README_RUNS = [
    (
        ["body", "p2_except_x2x3.json", "-K", "8"],
        "4ae178d82a39a4c35e29a383003298694c1717dcc88cf88bc6383a478c004e97",
        "7ad6fa4a0b43a2749e12f2d8a685c2f0fbcd5fb43804f09f2074134f486d3957",
    ),
    (
        ["slice", "p2_o2_cremona.json", "--t", "1/2"],
        "a02d0c3d035bea4a75cadd0a2c78660b1d939ebb1fc5d64fb77567ee021de6d8",
        None,
    ),
    (
        ["volume", "p2_o2_cremona.json"],
        "a8624f46eed6c4723b0beafd2c69b4b159dbfa7e430b8d37e3c7b94842898989",
        None,
    ),
    (
        ["sheafify", "p2_except_x2x3.json", "-K", "6"],
        "cdfe8dde3e456bf61083dbad76f822e5bb1aea5c7bc7314f9c53b72b3a4dbeeb",
        None,
    ),
    (
        ["base-locus", "p2_o2_cremona.json"],
        "c692f2f491eae946e113086ff36bbf39f88de9aaf9bf5e83cbc4bf4e9334b544",
        None,
    ),
    (
        ["birational", "p2_o2_squares.json"],
        "f016a50bf8d4d6c4b4c76ea08efe169054aa5bbbc1d394a0fb8f51db3f11bceb",
        None,
    ),
    (
        ["surface", "blowup_cubic.surface.json"],
        "6b2895427132c11d31759ca53f915c2196c84b80d4213bbf7331f9e41ca7a723",
        "f7b9cf335f0e391a826ffe11a85432f731b8176801dc85542839e7bb398a703d",
    ),
    (
        ["generic-test", "p2_except_x2x3.json", "--flags", "5"],
        "135f1a5fff59254ef63a9cfb047e2fcf91bdd43f0279d0ee1fbc3aa94e711199",
        None,
    ),
    (
        ["filtered-dims", "p2_o1_complete.json", "--levels", "6", "--sigma-budget", "4"],
        "8011e11ca2e84555d562755cd2eca11b02038f33074a5cf78275dfd20cc960c6",
        None,
    ),
    (
        ["fujita", "p2_except_x2x3.json", "--p", "2"],
        "620cef32960835cb0622aea3bd92068e2162bf81134687fa75a931cf17868096",
        None,
    ),
]

# further envelopes across the corpus: P^3 bodies, slices and volumes,
# bodies and slices under seeded flags, the remaining plane commands, and
# volume, fujita and filtered-dims under seeded flags
CORPUS_RUNS = [
    (
        ["body", "p3_o1_complete.json", "-K", "5"],
        "61ab6504abc326aba7e9e48d8a4c45ef4b530d8bc93acb005250f12d4a015a47",
        None,
    ),
    (
        ["slice", "p3_o1_complete.json", "-K", "4", "--t", "1/2"],
        "0618330081b3fbf5fdb60f478160dbb9584ccbbd6521ff71adf362fe0681d99b",
        None,
    ),
    (
        ["volume", "p3_o1_complete.json", "-K", "6"],
        "355a136d7f9c079a1da357a152b0242223dbb9bedc7e51cffee68f9b84967c1d",
        None,
    ),
    (
        ["body", "p2_o2_cremona.json", "-K", "8", "--flag-seed", "1"],
        "797f661cd60bb42243d51ed3e70d42f0ac9886c84405410cb902befd108fb252",
        None,
    ),
    (
        ["volume", "p2_o2_cremona.json", "-K", "4"],
        "790c00a64f5445a258e134b1b12b7d466ba9ad17838107578b8a53b414f115ec",
        None,
    ),
    (
        ["slice", "p2_except_x2x3.json", "-K", "8", "--t", "1/2", "--flag-seed", "2"],
        "0064712ca3ee0ca3698e1c77a9939fcf91433246c0252d3d462698d2aef93611",
        None,
    ),
    (
        ["slice", "p2_o2_no_x3sq.json", "--t", "1/3"],
        "732ca652c9451548568cacfcb234f4d0849d09c9174643138db1f62dac70ebf6",
        None,
    ),
    (
        ["sheafify", "p2_o2_no_x3sq.json", "-K", "6"],
        "467240d71d2b8e2ac727406a8629e82071d91249ebeabd9c210d97638c185b21",
        None,
    ),
    (
        ["base-locus", "p2_except_x2x3.json"],
        "3ccac71e5f7c4556bfea2ddf7b8bd1760fd6315b9e24b4f8cef99087065bca48",
        None,
    ),
    (
        ["body", "p2_o2_squares.json", "-K", "6", "--flag-seed", "4"],
        "65ce1da6396ecbe4fabfc0f8ce74a50ba9011365e4050597c7e9cf0e52d11255",
        None,
    ),
    (
        ["surface", "plane_conic.surface.json"],
        "422326aa37893b44eed885e5b0276fe83a2091a78c155ee7b9d937d1d4538b6d",
        None,
    ),
    (
        ["body", "p2_o2_x1_fixed.json", "-K", "6", "--flag-seed", "3"],
        "9418a8c0091d042892487e92c1f73f86a4c1a4e4ea7cf8071ec9b83abeef16e5",
        None,
    ),
    (
        ["slice", "p2_o2_x1_fixed.json", "-K", "6", "--t", "1/3"],
        "080a78a10c47e825d9d12a4ee9f987cbe19b3f87c14e09ad8303b07fdb1c8a7b",
        None,
    ),
    (
        ["volume", "p2_o2_cremona.json", "--flag-seed", "2"],
        "bf893751da640aa079677eb2f118e75786d7f9c36acb2e9e5b98e39eee2fe985",
        None,
    ),
    (
        ["fujita", "p2_except_x2x3.json", "--p", "2", "--flag-seed", "1"],
        "3ce17c21fe56fbd7a04a212c5395ea1bcc47229fa06b9edcdd47e971670bd812",
        None,
    ),
    (
        [
            "filtered-dims", "p2_except_x2x3.json", "--levels", "5",
            "--sigma-budget", "3", "--flag-seed", "2",
        ],
        "744f16b80c9bbb6ca8030289bdc6f45d57d23e70dbabed0bd308c5b90b0bf894",
        None,
    ),
    (
        ["generic-test", "p2_o2_cremona.json", "-K", "6", "--flags", "3"],
        "d72f06c3c6de2b6fbaa7593db6512dde4e08139cff0eb89f29785bacf65ed08c",
        None,
    ),
]


def blowup_surface_input(rng: random.Random, r: int) -> dict:
    """A seeded `surface` input on P^2 blown up at r general points, basis
    H, E_1..E_r: the exceptional curves and the lines H - E_i - E_j are the
    negative curves (with H - E_1 added as a generator when r = 1), D is H
    to 3H plus a nonnegative combination of the generators, the flag curve
    is a line, a line through the first point, the conic through all the
    points or a listed curve, and each curve meeting it gets a point
    multiplicity up to their intersection number 60% of the time."""
    n = r + 1
    gram = [[int(i == j) * (1 - 2 * (i > 0)) for j in range(n)] for i in range(n)]
    curves = [[int(k == i) for k in range(n)] for i in range(1, n)]
    curves += [
        [1] + [-int(k in (i, j)) for k in range(1, n)]
        for i in range(1, n)
        for j in range(i + 1, n)
    ]
    gens = curves if r >= 2 else curves + [[1, -1]]
    C = rng.choice([[1] + [0] * r, [1, -1] + [0] * (r - 1), [2] + [-1] * r] + curves)
    w = [rng.randint(0, 3) for _ in gens]
    D = [rng.randint(1, 3) * (i == 0) + sum(a * g[i] for a, g in zip(w, gens)) for i in range(n)]
    mults = {}
    for i, c in enumerate(curves):
        meet = sum(gram[k][k] * c[k] * C[k] for k in range(n))
        if c != C and meet > 0 and rng.random() < 0.6:
            mults[str(i)] = rng.randint(1, meet)
    return {
        "rank": n,
        "gram": gram,
        "negative_curves": curves,
        "effective_generators": gens,
        "D": D,
        "C": C,
        "point_multiplicities": mults,
    }


# the sha256 of the `surface` envelopes of six seeded inputs on Bl_r P^2
# for each r, in the order `blowup_surface_input(random.Random(2300 + r), r)`
# draws them; None where the flag curve lies in the negative part
SURFACE_PINS = {
    1: [
        "7e2347e995207c72953ba54ef09f1b03f1a23d74370f50e0499bfb693082fe4f",
        "2c944f5276b2cc098ba9bdef3a03d43fb1fdae559b78056407558ee1b1f8cc69",
        "55ba81c9d7fdbaba4583b01904c85efaaab4faae34cacc78cfff737cdff9f2c7",
        "848c08eabd6126304170b32e279a64dece7c789c5d2c85af2172223aa3350dcd",
        "cb09f78db7b4ddf9edcca5d2907cdd9accaa3b85cba557e12a2f5907c20883a2",
        "ec2b9e254755ca59110d77db10ea66807aee4a298eba89378fbfe58d6e242ca7",
    ],
    2: [
        "1007932f9e5206c0f87034d3093dbf5df1897b7f80f80b628091b206ea23f0f6",
        "b8d86ae054a568528e65a1d6c8344ffddf0cb203f023d0c32f8c86e89531d1ec",
        "cadc41990e2142564197226ad7a0079e102d29d341bdae79d4e7f7d1abc181c8",
        "15af8122bf27830f01d8787028dfeaebe6d8d62ce8351bbe2e2a4af0f28051a3",
        None,
        "d7093617b237902b872fe999f07c38c527def28217d84fdc2fa3137d646a9567",
    ],
    3: [
        "a7ec940c587546af5ac4b91e6a905b44617aee3593b348bc03984f79c0043e98",
        "a3708d6773975e4180b74f3ac8765d49be1d53a1d780b029180a10346f219e52",
        "28c2292359601b336e4758a09d446fd5b1fbf2d864ba3a8625817bfbf755a7af",
        "e1e673ac6180ca9993faa62ccef91da16c172b84c080aa01e1d4d7b24e3f47e0",
        "9ad845bfc9cfe324f2d51cf08b7800a7dd4666c3e2ea8845065c41fbcec86f04",
        "0764c6d1d3ea8dd43cb0bd1e5cc7a159dc3daad75dc9778b6007a24b06236270",
    ],
    4: [
        "2f35e1781dc4f959cb6f68f20b6d79a3ee4c86bd7b1c72bd14829075aafe36e8",
        "5a0e29d21b1379644edb92b41a565bd5c6c2b29c60d63ada61480a8d1760f4df",
        "0266e8362480bfba83c47ff34810288c05d42a5763576a7ac288a60b3040d07b",
        "98d0fe171f8cee70052f034482f1b40aa3fc112c1d235db73f8e40c06e24f724",
        "8d807858ee5ac41a04f65ac6210f7ee347646e77a9eb9fbc75559e5b7037e197",
        "8d31ae527f91e6b95245d33580401f0a667329df812248688225164e306aa481",
    ],
}

# the --svg drawings of the same seeded surfaces
SURFACE_SVG_PINS = {
    1: [
        "5d99892ef1413b1d4f76653706f6150b46e9b3a6d20cb236e9a35c05c5c169a7",
        "b7fbf623c9ee581226809c665bb4973cb18b09b4484a310070e21845504036f8",
        "b5809e084d7260f4ee6237368711d8a454d2a0a1685ca8d9503833ba62ffa8c5",
        "2d0f2b99dff8feba2ebb9dfc29803866dac6469f82e80fa027424171508f9692",
        "2543d2e1bcb22138121e7130605e57e7f9fb1d8e9078d0dd7bb93acaec442848",
        "5d99892ef1413b1d4f76653706f6150b46e9b3a6d20cb236e9a35c05c5c169a7",
    ],
    2: [
        "dc5153c0cdd167c9419ce8051017dcec76828a8a735c39851dc12d1918e49c11",
        "3b1d8a12507e7ea55235acf733ee111835e391566827333f5ee61cec002617eb",
        "828b9f55e1481e192727218d19d6aca9fb690cbb2ff99c170c63898aaa05e5da",
        "4cbbaeb70808a9210d68242ce601c0450be8a628ca199127712c8e79b4d9bc8d",
        None,
        "f5f3a65afb7be30bf04dabac24e10c847f28c79c1af2ac64bd9fdb3cf69dfa21",
    ],
    3: [
        "f236cba2dc43b0ff869e92ff4f3c5ceea88a77bcbb38b69c30753883fbe0b977",
        "848be71ee400b63dff417119dc4dc5fcb8085da4fc28753818a978896f5ab7dc",
        "84363a1f7f567c50c83c82e6c0e2444680c95587545e50f576175c86747c6062",
        "2d0f2b99dff8feba2ebb9dfc29803866dac6469f82e80fa027424171508f9692",
        "015de4f7b46474c038329447309539d646b0584b06bea923f45844a45ca980f3",
        "b2a114ad3a639317e7db077a9cd25f83fb8cbd628f86ca3bba62411995efd7a9",
    ],
    4: [
        "d30eaa5930ce6736d66696391fd99b9aac5043c273a1ec6b58b43b2127f23df9",
        "699aed64849e2ebb3161d94d2fa4de615156a842f00320a70be2ef8579d598f7",
        "1912a9e635aa5622558df3ad6c244907e92465267b80c54c1122e114d5c816ff",
        "7f5f9742b3d202ce79ac76a8677bbb25df078279349056b6b8ee23fb308f24e3",
        "7d4cd2d8e8c939344911393c65cc8ffe6259a22f8530dfcc612c09866cd9867b",
        "4c71573a91e6d2261cde246b73deab6cf46a20b502e6d0ddea0bcbde21ea80a8",
    ],
}

def invoke(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def payload_of(out: str) -> dict:
    env = json.loads(out)
    assert env["schema"] == 1
    return env["payload"]


def base_series() -> dict:
    return {
        "ambient_dim": 2,
        "divisor_degree": 1,
        "label": "t",
        "generators": [
            {
                "degree": 1,
                "forms": [
                    [{"exp": [1, 0, 0], "num": 1, "den": 1}],
                    [{"exp": [0, 1, 0], "num": 2, "den": 3}],
                ],
            }
        ],
    }


class TestSeriesSchema:
    def test_round_trip_corpus(self):
        for path in sorted(CORPUS.glob("*.json")):
            if ".surface." in path.name:
                continue
            data = json.loads(path.read_text())
            series = parse_series(data, where=path.name)
            again = parse_series(serialize_series(series))
            assert again.d == series.d
            assert again.twist == series.twist
            assert again.label == series.label
            for k in range(1, 5):
                assert again.level(k) == series.level(k)

    def test_zero_series(self):
        data = {"ambient_dim": 2, "divisor_degree": 1, "generators": []}
        series = parse_series(data)
        assert [series.level(k).dim for k in (1, 2, 3)] == [0, 0, 0]

    def test_forms_built_without_revalidation(self, monkeypatch):
        """parse_series checks every term itself, so its forms skip the
        validating constructor and equal the forms it would build."""
        calls = []
        init = HomogeneousForm.__init__
        monkeypatch.setattr(
            HomogeneousForm, "__init__", lambda self, *a: calls.append(a) or init(self, *a)
        )
        for path in sorted(CORPUS.glob("*.json")) + [None]:
            if path is not None and ".surface." in path.name:
                continue
            data = base_series() if path is None else json.loads(path.read_text())
            series = parse_series(data)
            assert calls == []
            for forms in (series.generators or {}).values():
                for f in forms:
                    assert f == HomogeneousForm(f.nvars, f.terms, f.degree)
                    assert all(type(c) is Fraction for c in f.terms.values())
            calls.clear()

    def test_rational_coefficients_kept(self):
        series = parse_series(base_series())
        span = series.level(1)
        assert span.dim == 2
        out = serialize_series(series)
        terms = [f for group in out["generators"] for f in group["forms"]]
        assert {"exp": [0, 1, 0], "num": 2, "den": 3} in [t for f in terms for t in f]

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("ambient_dim"), "missing key"),
            (lambda d: d.update(extra=1), "unknown keys"),
            (lambda d: d.update(ambient_dim=0), ">= 1"),
            (lambda d: d.update(ambient_dim=True), "expected an integer"),
            (lambda d: d.update(divisor_degree="2"), "expected an integer"),
            (lambda d: d.update(label=3), "expected a string"),
            (lambda d: d.update(generators={}), "expected a list"),
            (lambda d: d["generators"][0].pop("degree"), "missing key"),
            (lambda d: d["generators"][0].update(degree=0), ">= 1"),
            (lambda d: d["generators"][0].update(forms=[]), "nonempty list"),
            (lambda d: d["generators"][0]["forms"].append([]), "nonempty list of terms"),
            (
                lambda d: d["generators"][0]["forms"][0][0].update(exp=[1, 0]),
                "expected 3 exponents",
            ),
            (
                lambda d: d["generators"][0]["forms"][0][0].update(exp=[1, 1, 0]),
                "degree 2 != level 1",
            ),
            (
                lambda d: d["generators"][0]["forms"][0][0].update(exp=[-1, 2, 0]),
                ">= 0",
            ),
            (lambda d: d["generators"][0]["forms"][0][0].update(num=0), "zero coefficient"),
            (lambda d: d["generators"][0]["forms"][0][0].update(den=0), "zero denominator"),
            (lambda d: d["generators"][0]["forms"][0][0].update(num=1.5), "expected an integer"),
            (
                lambda d: d["generators"][0]["forms"][0].append(
                    {"exp": [1, 0, 0], "num": 2}
                ),
                "duplicate exponent",
            ),
            (
                lambda d: d["generators"].append(dict(d["generators"][0])),
                "duplicate degree",
            ),
        ],
    )
    def test_rejections(self, mutate, match):
        data = base_series()
        mutate(data)
        with pytest.raises(InputError, match=match):
            parse_series(data)

    def test_rational_parsing(self):
        assert parse_rational("3/4", "x") == parse_rational(3, "x") / 4
        with pytest.raises(InputError, match="cannot parse"):
            parse_rational("x", "spot")
        with pytest.raises(InputError, match="boolean"):
            parse_rational(True, "spot")


class TestSurfaceSchema:
    def test_corpus_surfaces_parse(self):
        for path in sorted(CORPUS.glob("*.surface.json")):
            lattice, D, C, mults = parse_surface(json.loads(path.read_text()))
            assert lattice.rank == len(D) == len(C)

    def test_rejections(self):
        base = json.loads((CORPUS / "blowup_cubic.surface.json").read_text())
        bad = dict(base, rank=3)
        with pytest.raises(InputError, match="expected 3 rows"):
            parse_surface(bad)
        bad = dict(base, point_multiplicities={"x": 1})
        with pytest.raises(InputError, match="curve index"):
            parse_surface(bad)
        bad = dict(base, point_multiplicities={"5": 1})
        with pytest.raises(InputError, match="out of range"):
            parse_surface(bad)
        bad = dict(base, D=[1])
        with pytest.raises(InputError, match="2 integers"):
            parse_surface(bad)


class TestCommands:
    def test_body(self, capsys):
        rc, out, _ = invoke(capsys, "body", FLAGSHIP, "-K", "6")
        assert rc == 0
        pay = payload_of(out)
        assert pay["certificate"] == "exact"
        assert pay["body"]["vertices"] == [
            ["0/1", "0/1"], ["0/1", "2/1"], ["2/1", "0/1"],
        ]
        assert pay["lattice_index"] == 1
        assert pay["volume"] == "2/1"
        assert pay["hilbert"]["stabilized"] is True

    def test_slice(self, capsys):
        rc, out, _ = invoke(capsys, "slice", FLAGSHIP, "--t", "1/2")
        assert rc == 0
        pay = payload_of(out)
        assert pay["equal"] is True
        assert pay["direct_slice"]["vertices"] == [["0/1"], ["3/2"]]
        assert pay["restricted"]["veronese"] == 2
        assert pay["restricted"]["body"]["vertices"] == [["0/1"], ["3/2"]]

    def test_volume(self, capsys):
        rc, out, _ = invoke(
            capsys, "volume", str(CORPUS / "p2_o2_cremona.json"), "-K", "8"
        )
        assert rc == 0
        pay = payload_of(out)
        assert pay["volume"] == "1/2"
        assert pay["identity"]["agrees"] is True
        assert pay["full_check"]["criterion"] is False
        assert pay["full_check"]["agree"] is True

    def test_volume_before_hilbert_stabilizes(self, capsys):
        # at K = 4 the Hilbert data of the cremona net has not stabilized,
        # so the full-volume check reports its volume side as unknown
        rc, out, _ = invoke(
            capsys, "volume", str(CORPUS / "p2_o2_cremona.json"), "-K", "4"
        )
        assert rc == 0
        pay = payload_of(out)
        assert pay["hilbert"]["stabilized"] is False
        full = pay["full_check"]
        assert full["volume"] is None
        assert full["agree"] is None

    def test_volume_of_zero_series(self, capsys, tmp_path):
        # no level is nonzero, so the series is not birational
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"ambient_dim": 2, "divisor_degree": 1, "generators": []})
        )
        rc, out, _ = invoke(capsys, "volume", str(path))
        assert rc == 0
        pay = payload_of(out)
        assert pay["volume"] == "0/1"
        full = pay["full_check"]
        assert (full["birational"], full["criterion"], full["agree"]) == (
            False, False, True,
        )

    def test_sheafify(self, capsys):
        rc, out, _ = invoke(capsys, "sheafify", FLAGSHIP, "--truncation", "2")
        assert rc == 0
        pay = payload_of(out)
        assert [(r["dim"], r["sheafified_dim"]) for r in pay["levels"]] == [
            (5, 6), (13, 15),
        ]
        assert pay["changed"] is True
        again = parse_series(pay["series"])
        assert again.level(1).dim == 6

    def test_base_locus(self, capsys):
        rc, out, _ = invoke(
            capsys, "base-locus", str(CORPUS / "p2_o2_cremona.json"), "-K", "6"
        )
        assert rc == 0
        pay = payload_of(out)
        assert pay["components"] == [[0, 1], [0, 2], [1, 2]]
        assert pay["empty"] is False
        assert pay["stabilized"] is True

    def test_birational(self, capsys):
        rc, out, _ = invoke(capsys, "birational", str(CORPUS / "p2_o2_squares.json"))
        assert rc == 0
        pay = payload_of(out)
        assert pay["birational"] is False
        assert pay["lattice_index"] == 4
        assert pay["basis"] == [[2, 0], [0, 2]]

    def test_surface(self, capsys):
        rc, out, _ = invoke(capsys, "surface", str(CORPUS / "blowup_cubic.surface.json"))
        assert rc == 0
        pay = payload_of(out)
        assert pay["mu"] == "3/1"
        assert pay["breakpoints"] == ["0/1", "1/1", "3/1"]
        assert pay["area"] == "4/1"
        assert pay["zariski_at_zero"]["negative"] == []
        assert [s["name"] for s in pay["strata"]] == [
            "interior", "left-edge", "lower-graph", "upper-graph", "right-edge",
        ]
        assert pay["polytope"]["vertices"] == [
            ["0/1", "0/1"], ["0/1", "2/1"], ["1/1", "0/1"], ["3/1", "2/1"],
        ]

    def test_surface_decomposes_once(self, capsys, monkeypatch):
        # one decomposition of D, plus the cross-check in each segment
        from okbody import surfacezar

        calls = []
        original = surfacezar.zariski

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (surfacezar, cli):
            if getattr(module, "zariski", None) is original:
                monkeypatch.setattr(module, "zariski", counted)
        rc, out, _ = invoke(capsys, "surface", str(CORPUS / "blowup_cubic.surface.json"))
        assert rc == 0
        segments = payload_of(out)["segments"]
        assert len(segments) == 2
        assert len(calls) == 1 + len(segments)

    def test_generic(self, capsys):
        rc, out, _ = invoke(
            capsys, "generic-test", str(CORPUS / "p2_o2_cremona.json"),
            "-K", "5", "--flags", "2", "--seed-base", "7",
        )
        assert rc == 0
        env = json.loads(out)
        assert env["seeds"] == [7, 8]
        assert env["payload"]["equal"] is True

    def test_filtered_dims(self, capsys):
        rc, out, _ = invoke(
            capsys, "filtered-dims", str(CORPUS / "p2_o1_complete.json"),
            "--levels", "2", "--sigma-budget", "1",
        )
        assert rc == 0
        pay = payload_of(out)
        sigmas = [row["sigma"] for row in pay["table"]]
        assert sigmas == [[0], [1], [0, 0], [0, 1], [1, 0]]
        table = {tuple(r["sigma"]): r["dims"] for r in pay["table"]}
        assert table[(0,)] == [3, 6]
        assert table[(1,)] == [1, 3]

    def test_fujita(self, capsys):
        rc, out, _ = invoke(capsys, "fujita", FLAGSHIP, "--p", "2", "-K", "6")
        assert rc == 0
        pay = payload_of(out)
        assert pay["contained"] is True


class TestDeterminismAndIO:
    def test_byte_identical_reports(self, capsys):
        rc1, out1, _ = invoke(capsys, "body", FLAGSHIP, "-K", "5")
        rc2, out2, _ = invoke(capsys, "body", FLAGSHIP, "-K", "5")
        assert rc1 == rc2 == 0
        assert out1 == out2
        rc3, out3, _ = invoke(
            capsys, "generic-test", str(CORPUS / "p2_o2_squares.json"),
            "-K", "4", "--flags", "2",
        )
        rc4, out4, _ = invoke(
            capsys, "generic-test", str(CORPUS / "p2_o2_squares.json"),
            "-K", "4", "--flags", "2",
        )
        assert rc3 == rc4 == 0
        assert out3 == out4

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.integers(-(2**200), 2**200)
            | st.text()
            | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "\u00e9", "\u2028", "\U0001f600"]),
            lambda inner: st.lists(inner)
            | st.lists(st.integers())
            | st.lists(st.text())
            | st.dictionaries(st.text(), inner),
            max_leaves=20,
        )
    )
    def test_writer_matches_json_dumps(self, value):
        assert cli.dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value", [1.5, (1, 2), {1, 2}, {1: "a"}, [[Fraction(1, 2)]], {"a": b"x"}]
    )
    def test_writer_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            cli.dumps(value)

    @pytest.mark.parametrize("argv,envelope_sha,svg_sha", README_RUNS + CORPUS_RUNS)
    def test_readme_envelopes_pinned(self, capsys, tmp_path, argv, envelope_sha, svg_sha):
        """The README commands and the further corpus runs keep
        byte-identical envelopes and SVGs."""
        argv = [str(CORPUS / a) if a.endswith(".json") else a for a in argv]
        svg = tmp_path / "out.svg"
        if svg_sha:
            argv += ["--svg", str(svg)]
        rc, out, _ = invoke(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == envelope_sha
        if svg_sha:
            assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha

    def test_zero_series_under_seeded_flag_pinned(self, capsys, tmp_path):
        """A series with no generators is viewed by transforming each
        level; its body under a seeded flag is empty."""
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"ambient_dim": 2, "divisor_degree": 1, "generators": []})
        )
        rc, out, _ = invoke(capsys, "body", str(path), "-K", "4", "--flag-seed", "1")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "12f05e6378c3b391dc96645ea4a556c4e2e86f3c55567ab199e23f2696024f5f"
        )

    @pytest.mark.parametrize("r", sorted(SURFACE_PINS))
    def test_seeded_surface_envelopes_pinned(self, capsys, tmp_path, r):
        """Seeded surface bodies on Bl_r P^2 keep byte-identical envelopes
        and SVGs; together they have several breakpoints, nonzero point
        multiplicities and a rational mu."""
        rng = random.Random(2300 + r)
        shapes = []
        for k, (pin, svg_pin) in enumerate(zip(SURFACE_PINS[r], SURFACE_SVG_PINS[r])):
            path = tmp_path / f"bl{r}_{k}.surface.json"
            path.write_text(json.dumps(blowup_surface_input(rng, r)))
            svg = tmp_path / f"bl{r}_{k}.svg"
            rc, out, err = invoke(capsys, "surface", str(path), "--svg", str(svg))
            if pin is None:
                assert (rc, out) == (2, "") and "replace D" in err
                assert svg_pin is None and not svg.exists()
                continue
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == pin, k
            assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_pin, k
            pay = payload_of(out)
            shapes.append(
                (len(pay["breakpoints"]), pay["mu"], len(pay["point_multiplicities"]))
            )
        if r >= 3:
            assert max(b for b, _, _ in shapes) >= 4
        assert any(m for _, _, m in shapes)
        if r in (1, 4):
            assert any(not mu.endswith("/1") for _, mu, _ in shapes)

    def test_flag_matrix(self, capsys):
        """An explicit flag matrix gives the body of the seeded flag it
        copies, and is recorded as rows, with no seed."""
        rows = [[fr_str(v) for v in row] for row in Flag.random(2, 1).matrix]
        base = ("body", FLAGSHIP, "-K", "6")
        rc, out, _ = invoke(capsys, *base, "--flag-matrix", json.dumps(rows))
        assert rc == 0
        env = json.loads(out)
        seeded = json.loads(invoke(capsys, *base, "--flag-seed", "1")[1])
        assert env["payload"]["body"] == seeded["payload"]["body"]
        assert env["payload"]["flag"] == {"kind": "matrix", "rows": rows}
        assert env["seeds"] == []

    def test_one_parser_per_process(self, capsys):
        runs = [
            ("base-locus", str(CORPUS / "p2_o2_cremona.json"), "-K", "4"),
            ("birational", str(CORPUS / "p2_o2_squares.json")),
            ("body", FLAGSHIP, "-K", "3", "--flag-seed", "2"),
            ("filtered-dims", str(CORPUS / "p2_o1_complete.json"), "--levels", "2"),
            ("slice", str(CORPUS / "p2_o2_cremona.json"), "--t", "1/2", "-K", "4"),
            ("body", FLAGSHIP, "-K", "0"),
            ("fujita", FLAGSHIP, "--p", "2", "-K", "3"),
        ]
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(invoke(capsys, *argv))
        build_parser.cache_clear()
        again = [invoke(capsys, *argv) for argv in runs]
        assert build_parser.cache_info().misses == 1
        assert again == fresh
        assert [rc for rc, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 0]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = invoke(capsys, "body", FLAGSHIP, "-K", "4", "--out", str(target))
        assert rc == 0
        assert out == ""
        env = json.loads(target.read_text())
        assert env["command"] == "body"
        assert len(env["input_sha256"]) == 64

    def test_svg_body(self, capsys, tmp_path):
        target = tmp_path / "body.svg"
        rc, _, _ = invoke(capsys, "body", FLAGSHIP, "-K", "4", "--svg", str(target))
        assert rc == 0
        text = target.read_text()
        assert text.startswith("<svg xmlns=")
        assert 'version="1.1"' in text
        assert "<polygon" in text
        assert "(2, 0)" in text

    def test_svg_surface(self, capsys, tmp_path):
        target = tmp_path / "surf.svg"
        rc, _, _ = invoke(
            capsys, "surface", str(CORPUS / "blowup_cubic.surface.json"),
            "--svg", str(target),
        )
        assert rc == 0
        text = target.read_text()
        assert text.startswith("<svg xmlns=")
        assert "alpha" in text and "beta" in text
        assert ">?</text>" in text
        assert "right-edge: ?" in text


class TestExitCodes:
    def test_subduction_cross_check(self, capsys, monkeypatch):
        """A series whose provider holds more than its generators make:
        the flag view's products fall short of the level dimension."""

        def provider(series, k):
            forms = [HomogeneousForm.monomial(3, e) for e in ((k, 0, 0), (0, k, 0))]
            return FormSpan(3, k, forms)

        x1 = HomogeneousForm.monomial(3, (1, 0, 0))
        series = GradedSeries(2, 1, provider, generators={1: [x1]})
        monkeypatch.setattr(cli, "load_series", lambda path: (series, "0" * 64))
        rc, out, err = invoke(capsys, "body", FLAGSHIP, "-K", "2", "--flag-seed", "1")
        assert rc == 4 and out == ""
        assert "invariant violated: subduction" in err

    @pytest.mark.parametrize(
        "extra,match",
        [
            (["--flag-seed", "1", "--flag-matrix", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"],
             "either a seed or a matrix"),
            (["--flag-matrix", "[[1, 0"], "invalid JSON"),
            (["--flag-matrix", "[1, 2, 3]"], "row 0: expected a list"),
            (["--flag-matrix", "[[1, 0, 0], [0, 1, 0]]"], "expected 3 rows of 3 entries"),
            (["--flag-matrix", "[[true, 0, 0], [0, 1, 0], [0, 0, 1]]"], "got a boolean"),
            (["--flag-matrix", "[[1, 0, 0], [0, 1, 0], [1, 1, 0]]"], "singular"),
        ],
    )
    def test_flag_matrix_rejections(self, capsys, extra, match):
        rc, out, err = invoke(capsys, "body", FLAGSHIP, "-K", "6", *extra)
        assert rc == 2 and out == ""
        assert match in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["body", FLAGSHIP, "-K", str(DEGREE_BOUND // 2)],
            ["volume", FLAGSHIP, "-K", str(DEGREE_BOUND // 2), "--flag-seed", "1"],
            ["slice", FLAGSHIP, "-K", str(DEGREE_BOUND), "--t", "1/2"],
            ["sheafify", FLAGSHIP, "-K", str(DEGREE_BOUND // 2)],
            ["base-locus", FLAGSHIP, "-K", str(DEGREE_BOUND // 2)],
            ["filtered-dims", FLAGSHIP, "--levels", str(DEGREE_BOUND // 2)],
            ["fujita", FLAGSHIP, "--p", str(DEGREE_BOUND // 2)],
            ["body", "GENERATOR"],
        ],
    )
    def test_degrees_past_the_packing_bound(self, capsys, tmp_path, argv):
        """A degree at or past the bound of packed exponent keys, from the
        truncation times the divisor degree or from a generator, exits 2
        at once, naming the bound, before any level past it is built."""
        if argv[1] == "GENERATOR":
            path = tmp_path / "series.json"
            path.write_text(json.dumps({
                "ambient_dim": 2, "divisor_degree": DEGREE_BOUND, "label": "high",
                "generators": [{"degree": 1, "forms": [
                    [{"num": 1, "den": 1, "exp": [DEGREE_BOUND, 0, 0]}]
                ]}],
            }))
            argv = [argv[0], str(path)]
        start = time.perf_counter()
        rc, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert f"bound {DEGREE_BOUND} of packed exponent keys" in err

    def test_missing_input(self, capsys):
        rc, _, err = invoke(capsys, "body", str(CORPUS / "nope.json"))
        assert rc == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["body", FLAGSHIP, "-K", "2"], "--out"),
            (["surface", str(CORPUS / "blowup_cubic.surface.json")], "--svg"),
        ],
    )
    def test_unwritable_output(self, capsys, tmp_path, argv, flag):
        """An output path that cannot be written is an input error, reported
        with its path, and the report goes nowhere."""
        target = tmp_path / "missing" / "report"
        rc, out, err = invoke(capsys, *argv, flag, str(target))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {target}: cannot write output (")
        assert "Traceback" not in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc, _, err = invoke(capsys, "body", str(bad))
        assert rc == 2
        assert "invalid JSON" in err

    def test_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ambient_dim": 2}))
        rc, _, err = invoke(capsys, "body", str(bad))
        assert rc == 2
        assert "missing key" in err

    def test_svg_needs_plane(self, capsys, tmp_path):
        rc, _, err = invoke(
            capsys, "body", str(CORPUS / "p3_o1_complete.json"),
            "-K", "2", "--svg", str(tmp_path / "x.svg"),
        )
        assert rc == 3
        assert "plane" in err

    @pytest.mark.parametrize(
        "forms, message",
        [
            (
                [[1, 0, 0], [0, 1, 0]],
                "svg: only full dimensional bodies are rendered, got dimension 1",
            ),
            ([], "svg: the body is empty"),
        ],
    )
    def test_svg_needs_full_dimensional_body(self, capsys, tmp_path, forms, message):
        """A valid plane series whose body is a segment (X1, X2 in degree
        1) or empty (the zero series) is not drawn: an unsupported mode."""
        path = tmp_path / "series.json"
        groups = [
            {"degree": 1, "forms": [[{"num": 1, "den": 1, "exp": e}] for e in forms]}
        ]
        path.write_text(json.dumps({
            "ambient_dim": 2, "divisor_degree": 1, "label": "flat",
            "generators": groups if forms else [],
        }))
        rc, out, err = invoke(
            capsys, "body", str(path), "-K", "2", "--svg", str(tmp_path / "x.svg")
        )
        assert rc == 3 and out == ""
        assert message in err

    def test_slice_needs_surface_or_higher(self, capsys):
        rc, _, err = invoke(
            capsys, "slice", str(CORPUS / "p1_o1_complete.json"), "--t", "1/2"
        )
        assert rc == 3

    def test_slice_domain(self, capsys):
        rc, _, err = invoke(capsys, "slice", FLAGSHIP, "--t", "2")
        assert rc == 2
        assert "divisor degree" in err

    @pytest.mark.parametrize("flags", ["1", "0", "-2"])
    def test_generic_needs_two_flags(self, capsys, flags):
        rc, out, err = invoke(
            capsys, "generic-test", str(CORPUS / "p2_o2_squares.json"),
            "-K", "2", "--flags", flags,
        )
        assert rc == 2 and out == ""
        assert "--flags must be at least 2" in err

    def test_filtered_dims_needs_a_level(self, capsys):
        rc, out, err = invoke(
            capsys, "filtered-dims", str(CORPUS / "p2_o1_complete.json"),
            "--levels", "0",
        )
        assert rc == 2 and out == ""
        assert "--levels must be at least 1" in err

    @pytest.mark.parametrize("level", ["0", "-3"])
    def test_birational_needs_a_level(self, capsys, level):
        rc, out, err = invoke(
            capsys, "birational", FLAGSHIP, "--max-level", level,
        )
        assert rc == 2 and out == ""
        assert "--max-level must be at least 1" in err

    def test_filtered_dims_needs_a_budget(self, capsys):
        rc, out, err = invoke(
            capsys, "filtered-dims", str(CORPUS / "p2_o1_complete.json"),
            "--sigma-budget", "-1",
        )
        assert rc == 2 and out == ""
        assert "--sigma-budget must be nonnegative" in err

    def test_flag_curve_in_support(self, capsys, tmp_path):
        data = {
            "rank": 2,
            "gram": [[1, 0], [0, -1]],
            "negative_curves": [[0, 1]],
            "effective_generators": [[1, -1], [0, 1]],
            "D": [2, 3],
            "C": [0, 1],
        }
        path = tmp_path / "bad.surface.json"
        path.write_text(json.dumps(data))
        rc, _, err = invoke(capsys, "surface", str(path))
        assert rc == 2
        assert "replace D" in err

    def test_point_multiplicity_above_intersection(self, capsys, tmp_path):
        # Bl3P2: the line H - E1 - E3 (curve 4) meets C = E3 once, so no
        # point of C lies on it with multiplicity 2
        lines = [[1, -1, -1, 0], [1, -1, 0, -1], [1, 0, -1, -1]]
        curves = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]] + lines
        data = {
            "rank": 4,
            "gram": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            "negative_curves": curves,
            "effective_generators": curves,
            "D": [5, -1, -2, -1],
            "C": [0, 0, 0, 1],
            "point_multiplicities": {"4": 2},
        }
        path = tmp_path / "high.surface.json"
        path.write_text(json.dumps(data))
        rc, out, err = invoke(capsys, "surface", str(path))
        assert rc == 2 and out == ""
        assert "exceeds G . C" in err

    def test_reducible_flag_curve(self, capsys, tmp_path):
        # Bl1P2: C = H + E meets E negatively, so E is a component of C;
        # the continuation used to abort with exit 4
        data = {
            "rank": 2,
            "gram": [[1, 0], [0, -1]],
            "negative_curves": [[0, 1]],
            "effective_generators": [[0, 1], [1, -1]],
            "D": [4, 3],
            "C": [1, 1],
        }
        path = tmp_path / "reducible.surface.json"
        path.write_text(json.dumps(data))
        rc, out, err = invoke(capsys, "surface", str(path))
        assert rc == 2 and out == ""
        assert "flag curve must be irreducible" in err

    @pytest.mark.parametrize(
        "mults, key",
        [
            ({"00": 1}, "00"),
            ({" 0": 1}, " 0"),
            ({"0_0": 1}, "0_0"),
            ({"-0": 1}, "-0"),
            ({"0": 1, "00": 1}, "00"),
        ],
    )
    def test_point_multiplicity_key_spelling(self, capsys, tmp_path, mults, key):
        # int() reads each of these keys as curve 0; only "0" names it
        data = json.loads((CORPUS / "blowup_cubic.surface.json").read_text())
        data["point_multiplicities"] = mults
        path = tmp_path / "key.surface.json"
        path.write_text(json.dumps(data))
        rc, out, err = invoke(capsys, "surface", str(path))
        assert rc == 2 and out == ""
        assert f"[{key!r}]: key must be a curve index" in err

    def test_repeated_negative_curve(self, capsys, tmp_path):
        data = {
            "rank": 2,
            "gram": [[1, 0], [0, -1]],
            "negative_curves": [[0, 1], [0, 1]],
            "effective_generators": [[1, -1], [0, 1]],
            "D": [2, 1],
            "C": [1, -1],
        }
        path = tmp_path / "repeat.surface.json"
        path.write_text(json.dumps(data))
        rc, out, err = invoke(capsys, "surface", str(path))
        assert rc == 2 and out == ""
        assert "repeated negative curve" in err
