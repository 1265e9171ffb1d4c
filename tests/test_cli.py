"""End-to-end checks of the command line interface: schema validation,
envelope determinism, exit codes, and drawing output."""

import json
from pathlib import Path

import pytest

from okbody.cli import (
    main,
    parse_rational,
    parse_series,
    parse_surface,
    serialize_series,
)
from okbody.errors import InputError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FLAGSHIP = str(CORPUS / "p2_except_x2x3.json")


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
    def test_missing_input(self, capsys):
        rc, _, err = invoke(capsys, "body", str(CORPUS / "nope.json"))
        assert rc == 2
        assert "cannot read" in err

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

    def test_slice_needs_surface_or_higher(self, capsys):
        rc, _, err = invoke(
            capsys, "slice", str(CORPUS / "p1_o1_complete.json"), "--t", "1/2"
        )
        assert rc == 3

    def test_slice_domain(self, capsys):
        rc, _, err = invoke(capsys, "slice", FLAGSHIP, "--t", "2")
        assert rc == 2
        assert "divisor degree" in err

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
