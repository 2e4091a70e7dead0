"""The one HTTP path to an outside model: the API key from the environment,
a new HTTP session from `new_session`, and a JSON POST retried with
backoff. The LLM client and the remote embedding provider both go through
it. `new_session` is the only place `requests` is imported, so offline
commands never load the HTTP stack and run without the package."""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")

ATTEMPTS = 3
TIMEOUT_S = 60.0


def api_key(env: str) -> str:
    """The key held in environment variable `env`; RuntimeError if unset."""
    key = os.environ.get(env)
    if not key:
        raise RuntimeError(f"no API key: set the {env} environment variable")
    return key


def new_session():
    """A new `requests.Session`; RuntimeError if `requests` is not installed."""
    try:
        import requests
    except ImportError as exc:
        raise RuntimeError(
            f"the remote clients need the 'requests' package: {exc}") from None
    return requests.Session()


def post_json(session, url: str, key: str, body: dict,
              parse: Callable[[object], T],
              sleep: Callable[[float], None],
              before_attempt: Callable[[], None] = lambda: None) -> T:
    """POST `body` as JSON with a bearer key; return `parse(reply JSON)`.

    A transport or HTTP error (requests raises OSErrors) or a reply `parse`
    rejects is retried: ATTEMPTS tries, sleeping 1 s, then 2 s, between them.
    """
    headers = {"Authorization": f"Bearer {key}",
               "Content-Type": "application/json"}
    last: Exception | None = None
    for attempt in range(ATTEMPTS):
        before_attempt()
        try:
            resp = session.post(url, json=body, headers=headers,
                                timeout=TIMEOUT_S)
            resp.raise_for_status()
            return parse(resp.json())
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            last = exc
            if attempt + 1 < ATTEMPTS:
                sleep(2.0 ** attempt)
    raise RuntimeError(f"POST {url} failed after {ATTEMPTS} attempts: {last}")
