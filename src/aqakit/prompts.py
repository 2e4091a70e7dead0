"""Prompt text that two packages need without importing each other: the
judge prompt evaluate sends, which forge's SynthLlmClient recognises and
answers."""

JUDGE_PROMPT = ("Below is a pair of question and response. Identify if the "
                "response answers the question. Return yes or no.")
