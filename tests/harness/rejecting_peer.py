"""A TCP peer that speaks the framing but knows no message type.

Every frame — ``[len u32][type u8][payload]`` — is answered with
``MSG_ERROR "unexpected message <type>"``, the reply a real server gives
to a type byte it does not dispatch. The raw type bytes it saw are kept
in ``frames`` so a test can count exactly what the client sent.
"""

import socket
import struct
import threading

from repro.tedstore import messages as m


class RejectingPeer:
    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(2)
        self.address = self._listener.getsockname()
        self.frames = []
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "RejectingPeer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        # shutdown() wakes the accept() the serving thread is parked in;
        # close() alone would leave it blocked.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as stream:
                while True:
                    header = stream.read(5)
                    if len(header) < 5:
                        break
                    (length,) = struct.unpack(">I", header[:4])
                    stream.read(length - 1)
                    self.frames.append(header[4])
                    try:
                        conn.sendall(
                            m.frame(
                                m.MSG_ERROR,
                                m.encode_error(
                                    f"unexpected message {header[4]}"
                                ),
                            )
                        )
                    except OSError:
                        break
