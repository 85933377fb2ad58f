"""Line framing shared by every endpoint of the newline-delimited JSON protocol.

The model server, the fleet router and the chaos proxy all read one JSON
object per line. asyncio's default stream limit is 64 KiB, which a
256-row predict already exceeds, so every endpoint opens its streams with
:data:`LINE_LIMIT` and reads requests with :func:`read_line`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

__all__ = ["LINE_LIMIT", "LINE_TOO_LONG_REPLY", "read_line"]

#: Longest line (request or response) any endpoint accepts, in bytes.
LINE_LIMIT = 4 * 1024 * 1024

#: Reply to a request line longer than :data:`LINE_LIMIT`, typed by its
#: ``err`` code; the connection stays open for the next request.
LINE_TOO_LONG_REPLY = json.dumps({
    "ok": False,
    "error": f"request line exceeds {LINE_LIMIT} bytes",
    "err": "line_too_long",
}).encode("utf-8") + b"\n"


async def read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Next line from ``reader``; ``None`` if it was longer than the limit.

    Returns the newline-terminated line, or the unterminated tail (``b""``
    on a clean close) at end of stream. An over-limit line is consumed
    through its newline before ``None`` is returned, so the caller can
    answer with an error and keep reading requests from the same
    connection.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        skip = exc.consumed
    while True:
        try:
            await reader.readexactly(skip)
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as exc:
            skip = exc.consumed
        except asyncio.IncompleteReadError:
            return b""
