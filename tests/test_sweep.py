"""The envelope sweep (`tests/sweep.py`) against its manifest: every command
prints what the manifest records, and a changed output is named by its
command."""

from okbody import cli

import sweep


def test_every_sweep_command_matches_the_manifest():
    assert sweep.differences(sweep.run(), sweep.load()) == []


def test_two_sweeps_agree():
    def select(argv):
        return argv[1] in ("mixed5.json", "p3_o1_complete.json")

    first = sweep.run(select)
    assert len(first) == 58 and first == sweep.run(select)


def test_a_flipped_certificate_is_named(monkeypatch):
    """A mutant: the body of p2_o1_complete under the standard flag says
    "truncation" instead of "exact".  Of the body commands, the sweep names
    that one alone."""
    body = cli.okounkov_body

    def flipped(series, flag, K):
        rep = body(series, flag, K)
        if series.label == "p2-o1-complete" and flag.is_standard:
            assert rep.certificate == "exact"
            return rep._replace(certificate="truncation")
        return rep

    monkeypatch.setattr(cli, "okounkov_body", flipped)
    results = sweep.run(lambda argv: argv[0] == "body")
    assert len(results) == 57
    manifest = {name: entry for name, entry in sweep.load().items() if name in results}
    want = ["body p2_o1_complete.json -K 8: stdout"]
    assert sweep.differences(results, manifest) == want
