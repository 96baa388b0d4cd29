"""PctProtocol client side of the benchmark: server processes, a blocking
control connection, and a closed-loop load generator.

The wire format is the one docs/SERVER.md specifies:

    request  := VERB [' ' payload] '\\n'      (payload backslash-escaped)
    response := "OK " nbytes ' ' nrows ' ' ncols ' ' micros '\\n' body
              | "ERR " code-name ' ' message '\\n'
"""

import os
import selectors
import signal
import socket
import subprocess
import time


def escape_line(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


def encode_request(verb, payload=None):
    line = verb if payload is None else verb + " " + escape_line(payload)
    return (line + "\n").encode()


class Reply:
    __slots__ = ("ok", "body", "micros", "error")

    def __init__(self, ok, body=b"", micros=0, error=""):
        self.ok = ok
        self.body = body
        self.micros = micros
        self.error = error


def parse_reply(buf, start):
    """Parses one response frame of `buf` at `start`.

    Returns (Reply, end offset), or (None, start) while the frame is still
    incomplete."""
    nl = buf.find(b"\n", start)
    if nl < 0:
        return None, start
    header = bytes(buf[start:nl]).decode(errors="replace")
    if header.startswith("OK "):
        fields = header.split()
        nbytes = int(fields[1])
        end = nl + 1 + nbytes
        if len(buf) < end:
            return None, start
        return Reply(True, bytes(buf[nl + 1:end]), int(fields[4])), end
    return Reply(False, error=header), nl + 1


class Connection:
    """One blocking session, for set-up and control verbs."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def request(self, verb, payload=None):
        self.sock.sendall(encode_request(verb, payload))
        while True:
            reply, end = parse_reply(self.buf, 0)
            if reply is not None:
                del self.buf[:end]
                return reply
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk

    def must(self, verb, payload=None):
        reply = self.request(verb, payload)
        if not reply.ok:
            raise RuntimeError("%s %s: %s" % (verb, payload or "", reply.error))
        return reply

    def close(self):
        try:
            self.sock.sendall(encode_request("QUIT"))
        except OSError:
            pass
        self.sock.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Servers:
    """Owns every pctagg_server process the benchmark starts; stop() ends and
    reaps them all."""

    def __init__(self, binary, log_dir):
        self.binary = binary
        self.log_dir = log_dir
        self.procs = []

    def start(self, args, name):
        """Starts one server on a fresh port and waits until it answers
        PING. Returns the port."""
        port = free_port()
        log = open(os.path.join(self.log_dir, name + ".log"), "ab")
        try:
            proc = subprocess.Popen(
                [self.binary, "--port", str(port)] + args,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        finally:
            log.close()
        self.procs.append(proc)
        deadline = time.monotonic() + 120
        while True:
            if proc.poll() is not None:
                raise RuntimeError("%s exited with %d during start-up (see %s)"
                                   % (name, proc.returncode, log.name))
            try:
                conn = Connection(port, timeout=5)
                try:
                    if conn.request("PING").ok:
                        return port
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("%s did not come up on port %d" % (name, port))
            time.sleep(0.005)

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


class Sample:
    __slots__ = ("query", "latency", "reply")

    def __init__(self, query, latency, reply):
        self.query = query
        self.latency = latency
        self.reply = reply


def closed_loop(ports, clients, setup, next_query, seconds):
    """Runs `clients` sessions, each sending its next query only when the
    previous reply has been read, for `seconds`.

    `ports[i % len(ports)]` serves client i; `setup` lists (verb, payload)
    pairs sent on every session first; `next_query(client)` returns
    (query id, sql). Returns (samples, elapsed seconds): one sample per
    request sent before the deadline, latency in seconds from send to the
    last body byte."""
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for i in range(clients):
            conn = Connection(ports[i % len(ports)])
            conns.append(conn)
            for verb, payload in setup:
                conn.must(verb, payload)
        samples = []
        state = {}
        start = time.perf_counter()
        deadline = start + seconds

        def send(i):
            qid, sql = next_query(i)
            conns[i].sock.sendall(encode_request("QUERY", sql))
            state[i] = (qid, time.perf_counter())

        for i, conn in enumerate(conns):
            sel.register(conn.sock, selectors.EVENT_READ, i)
            send(i)
        end = start
        while state:
            for key, _ in sel.select(timeout=60):
                i = key.data
                conn = conns[i]
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed session %d" % i)
                conn.buf += chunk
                reply, used = parse_reply(conn.buf, 0)
                if reply is None:
                    continue
                now = time.perf_counter()
                del conn.buf[:used]
                qid, sent = state.pop(i)
                samples.append(Sample(qid, now - sent, reply))
                end = now
                if now < deadline:
                    send(i)
        return samples, end - start
    finally:
        sel.close()
        for conn in conns:
            conn.close()


def parse_stats(text):
    """Prometheus text from STATS -> {series name: value}."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values
