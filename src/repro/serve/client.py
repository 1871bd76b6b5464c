"""The ``repro request`` side: a line-delimited JSON protocol client.

:class:`ServeClient` speaks ``repro.serve/1`` over the same two
transports the daemon binds (Unix-domain socket or localhost TCP),
pipelining any number of requests over one connection.  Responses are
matched to requests by ``id``; a read deadline turns a silent daemon
into a structured :class:`~repro.robust.errors.InputError` instead of a
hang.

The module also owns the **offline twin**: :func:`one_shot` answers the
pure source ops without any daemon by calling the same
:func:`~repro.serve.ops.run_op` the server uses -- this is the
byte-equality oracle the protocol tests and the CI smoke job compare
against.
"""

from __future__ import annotations

import json
import socket

from repro.robust.errors import InputError


class ServeClient:
    """One connection to a running ``repro serve`` daemon.

    Usable as a context manager; ``request`` sends one op and blocks for
    its response (the daemon serializes per-connection responses in
    request order).
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 30.0,
    ) -> None:
        self.timeout_s = timeout_s
        try:
            if socket_path is not None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout_s)
                self._sock.connect(socket_path)
            else:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout_s
                )
        except OSError as exc:
            where = socket_path if socket_path is not None else f"{host}:{port}"
            raise InputError(
                f"cannot connect to repro daemon at {where}: {exc}",
                phase="serve-client",
            ) from None
        self._buffer = b""
        self._next_id = 0

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- protocol ------------------------------------------------------------

    def request(self, op: str, **params) -> dict:
        """Send one request; return the full response object."""
        self._next_id += 1
        request = {"id": self._next_id, "op": op, **params}
        line = json.dumps(
            request, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        try:
            self._sock.sendall(line + b"\n")
        except OSError as exc:
            raise InputError(
                f"daemon connection lost while sending: {exc}",
                phase="serve-client",
            ) from None
        return self._read_response(self._next_id)

    def _read_response(self, request_id: int) -> dict:
        while True:
            while b"\n" not in self._buffer:
                try:
                    chunk = self._sock.recv(65536)
                except socket.timeout:
                    raise InputError(
                        f"daemon did not respond within {self.timeout_s}s",
                        phase="serve-client",
                    ) from None
                except OSError as exc:
                    raise InputError(
                        f"daemon connection lost: {exc}", phase="serve-client"
                    ) from None
                if not chunk:
                    raise InputError(
                        "daemon closed the connection before responding",
                        phase="serve-client",
                    )
                self._buffer += chunk
            line, self._buffer = self._buffer.split(b"\n", 1)
            if not line.strip():
                continue
            response = json.loads(line.decode("utf-8"))
            if response.get("id") == request_id:
                return response
            # A response to an older pipelined request: drop it.

    # -- conveniences --------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def shutdown(self) -> dict:
        return self.request("shutdown")


def raise_for_error(response: dict) -> dict:
    """The ``result`` of an ok response; a daemon-reported error becomes
    the matching local exception class so the CLI's exit-2 taxonomy
    applies unchanged."""
    if response.get("ok"):
        return response.get("result", {})
    error = response.get("error") or {}
    kind = error.get("kind", "internal")
    message = error.get("message", "daemon error")
    from repro.robust.errors import AnalysisError, ReproError

    if kind in ("analysis", "timeout"):
        raise AnalysisError(message, phase="serve-remote")
    if kind in ("input", "language"):
        raise InputError(message, phase="serve-remote")
    raise ReproError(message, phase="serve-remote")


def one_shot(op: str, source: str, label: str = "") -> dict:
    """The daemon-free answer for a source op (the byte-equality twin of
    a warm daemon response's ``result``)."""
    from repro.serve.ops import run_op

    return run_op(op, source, label=label)
