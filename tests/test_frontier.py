"""`checks/frontier.py` on its smallest row: a fresh -O process per solve,
and exit 1 when a solved row costs other than its pin."""

import pytest

from conftest import load_check

frontier = load_check("frontier")
SMALLEST = frontier.ROWS[0]  # 8x8 k=20 s1, pinned at 114


@pytest.mark.parametrize("pin, exit_code", [(114, 0), (113, 1)])
def test_a_wrong_pin_fails_the_frontier(pin, exit_code, capsys):
    row = SMALLEST._replace(pin=pin)
    assert frontier.run([row], ["eager"]) == exit_code
    out = capsys.readouterr().out
    fields = dict(f.split("=") for f in out.splitlines()[0].split()[2:])
    assert (fields["status"], fields["cost"], fields["bounds"]) == ("solved", "114", "7")
    assert fields["lower_bound"] == "114" and float(fields["peak_rss_mb"]) > 0
    assert ("MISMATCH" in out) == bool(exit_code)
