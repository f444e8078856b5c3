"""The verdict on an oracle check, formed as the front end forms it for a printed row."""

from biheun.verify import judge_rows


def confirmed(check) -> bool:
    """Whether every figure ``verify.judge_rows`` forms of the one check passes: its gap
    within RTOL and, for a requested vector, its node count at its level."""
    return all(fig.passed for fig in judge_rows([check], []))
