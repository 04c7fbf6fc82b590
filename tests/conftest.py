from jetstress.chart import FDScheme, QuadratureRule, volume_nodes
from jetstress.sections import velocity_jets
from jetstress.stress import virtual_power_of_stress

ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def stress_power(s, vs, dom, rule=QuadratureRule(), scheme=FDScheme()):
    """The virtual power of s on each velocity field of vs, their jets
    evaluated on the rule's volume nodes."""
    jets = velocity_jets(vs, volume_nodes(dom, rule)[0], dom, scheme)
    return virtual_power_of_stress(s, jets, dom, rule)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # verdict lines are recorded during the run and replayed here, past
    # output capture, so they show up in plain `pytest -v` output
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
