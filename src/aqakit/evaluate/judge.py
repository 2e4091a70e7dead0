"""LLM-judged instruction following: yes/no verdicts over QA pairs."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..prompts import JUDGE_PROMPT

_VERDICT_RE = re.compile(r"[a-z]+")


def judge_instruction_following(question: str, answer: str,
                                client) -> bool | None:
    """One yes/no verdict; None when the judge output is unparseable."""
    prompt = f"{JUDGE_PROMPT}\n\nQuestion: {question}\nResponse: {answer}"
    reply = client.complete(prompt)
    m = _VERDICT_RE.search(reply.lower())
    if m is None:
        return None
    word = m.group(0)
    if word == "yes":
        return True
    if word == "no":
        return False
    return None


@dataclass
class JudgeReport:
    rate: float                 # yes / (yes + no)
    n_yes: int
    n_no: int
    n_abstained: int            # unparseable verdicts, excluded from the rate


def judge_rate(pairs: list[tuple[str, str]], client) -> JudgeReport:
    """Instruction-following rate over (question, answer) pairs."""
    if not pairs:
        raise ValueError("no pairs to judge")
    verdicts = [judge_instruction_following(q, a, client) for q, a in pairs]
    n_yes = sum(v is True for v in verdicts)
    n_no = sum(v is False for v in verdicts)
    n_abstained = sum(v is None for v in verdicts)
    if n_yes + n_no == 0:
        raise ValueError("every verdict abstained; rate undefined")
    return JudgeReport(rate=n_yes / (n_yes + n_no), n_yes=n_yes, n_no=n_no,
                       n_abstained=n_abstained)
