"""A run's report as a tree of ``json`` types, for the tests that read its rows.

The report holds the run's own records, which its writer renders; the tree is
that text read back, so a test reads what ``escrowsim run`` prints.
"""

import json


def report_tree(report) -> dict:
    """``report``'s JSON text, parsed."""
    return json.loads(report.to_json_text())
