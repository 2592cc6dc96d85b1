"""SHA-256 from the interpreter's builtin module, not from OpenSSL.

``import hashlib`` loads OpenSSL's libcrypto: about 3.5 MB of resident
memory and a few milliseconds in every process that imports it. Scenario
ids, chunk digests, record checks and fault rolls only need SHA-256,
which CPython also builds in (``_sha2`` since 3.12, ``_sha256`` before);
the stdlib's own :mod:`random` loads its SHA-512 the same way. The
digests are the same bytes either way.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # pragma: no cover - an interpreter without them
        from hashlib import sha256

__all__ = ["sha256"]
