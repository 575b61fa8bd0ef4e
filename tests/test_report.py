"""`report.first_witness`, the one place a law's ordered scan is skipped or read, and `Verdict.of`."""

from orthokit.report import Check, Verdict, first_failure, first_witness


def unreadable():
    """A scan that fails the test if it is read."""
    raise AssertionError("the scan was read although the law holds")
    yield


def test_a_law_that_holds_does_not_read_its_scan():
    assert first_witness(unreadable(), holds=True) is None
    assert first_failure("law", unreadable(), True) == Check("law", True)


def test_the_first_item_in_scan_order_is_returned():
    seen = []

    def scan():
        for item in ((2, 0), (0, 1), (1, 1)):
            seen.append(item)
            yield item

    assert first_witness(scan()) == (2, 0)
    assert seen == [(2, 0)]
    assert first_witness([(0, 1), (1, 0)], holds=False) == (0, 1)
    assert first_failure("law", iter(["x=b", "x=a"])) == Check("law", False, "x=b")


def test_an_empty_scan_gives_none():
    assert first_witness(()) is None
    assert first_witness(iter([])) is None
    assert first_failure("law", ()) == Check("law", True)


def test_a_verdict_fails_exactly_when_it_has_a_witness():
    assert Verdict.of(None) == Verdict(True)
    for witness in ((), 0, (0, 1)):
        assert Verdict.of(witness) == Verdict(False, witness)
        assert not Verdict.of(witness)
