"""Seeded flow-record CSV shaped like UNSW-NB15, for the ingest-score workload.

42 features plus a 0/1 label, in the column order of the UNSW-NB15 training
set (minus ``id`` and ``attack_cat``). Three categorical columns take about
130, 13 and 10 distinct values with Zipf-like frequencies, like proto,
service and state. Numeric columns are heavy-tailed (log-normal or Pareto)
and many hold integer counts. Every categorical value occurs at least
MIN_PER_VALUE times, so any 80% training split sees every value and
preprocess never meets an unseen category.

edgenet.synthetic emits 10 numeric columns only; this width is what makes
the per-cell column scans in data_pipeline cost what they cost on real data.
"""

from __future__ import annotations

import numpy as np

NUMERIC = (
    "dur", "spkts", "dpkts", "sbytes", "dbytes", "rate", "sttl", "dttl", "sload", "dload",
    "sloss", "dloss", "sinpkt", "dinpkt", "sjit", "djit", "swin", "stcpb", "dtcpb", "dwin",
    "tcprtt", "synack", "ackdat", "smean", "dmean", "trans_depth", "response_body_len",
    "ct_srv_src", "ct_state_ttl", "ct_dst_ltm", "ct_src_dport_ltm", "ct_dst_sport_ltm",
    "ct_dst_src_ltm", "is_ftp_login", "ct_ftp_cmd", "ct_flw_http_mthd", "ct_src_ltm",
    "ct_srv_dst", "is_sm_ips_ports",
)
INTEGER = frozenset((
    "spkts", "dpkts", "sbytes", "dbytes", "sttl", "dttl", "sloss", "dloss", "swin",
    "stcpb", "dtcpb", "dwin", "smean", "dmean", "trans_depth", "response_body_len",
    "ct_srv_src", "ct_state_ttl", "ct_dst_ltm", "ct_src_dport_ltm", "ct_dst_sport_ltm",
    "ct_dst_src_ltm", "ct_ftp_cmd", "ct_flw_http_mthd", "ct_src_ltm", "ct_srv_dst",
))
BINARY = frozenset(("is_ftp_login", "is_sm_ips_ports"))

PROTO = ("tcp", "udp", "unas", "arp", "ospf", "sctp", "gre", "ipv6", "icmp", "igmp") + tuple(
    f"proto{i:03d}" for i in range(120))
SERVICE = ("-", "dns", "http", "smtp", "ftp-data", "ftp", "ssh", "pop3", "dhcp", "snmp",
           "ssl", "irc", "radius")
STATE = ("FIN", "INT", "CON", "REQ", "RST", "ECO", "ACC", "CLO", "PAR", "URN")
CATEGORICAL = {"proto": PROTO, "service": SERVICE, "state": STATE}

COLUMNS = ("dur", "proto", "service", "state") + NUMERIC[1:] + ("label",)
MIN_PER_VALUE = 20


def _categorical(rng, values, n_rows: int) -> np.ndarray:
    k = len(values)
    weights = 1.0 / np.arange(1, k + 1) ** 1.1
    counts = MIN_PER_VALUE + rng.multinomial(n_rows - MIN_PER_VALUE * k, weights / weights.sum())
    return rng.permutation(np.repeat(np.arange(k), counts))


def generate(n_rows: int, seed: int) -> str:
    """CSV text with a header row; the same (n_rows, seed) gives the same bytes."""
    if n_rows < MIN_PER_VALUE * len(PROTO):
        raise ValueError(f"need at least {MIN_PER_VALUE * len(PROTO)} rows")
    rng = np.random.default_rng(seed)
    label = (rng.random(n_rows) < 0.45).astype(np.int64)
    cells: dict[str, list[str]] = {"label": [str(v) for v in label]}
    for name, values in CATEGORICAL.items():
        cells[name] = [values[i] for i in _categorical(rng, values, n_rows)]
    for j, name in enumerate(NUMERIC):
        shift = 0.6 * (j % 3 - 1) * label  # attacks move a third of the columns each way
        if name in BINARY:
            col = (rng.random(n_rows) < 0.02 + 0.1 * label).astype(np.int64)
        elif j % 2:
            col = rng.lognormal(mean=1.0 + j % 5 + shift, sigma=1.5)
        else:
            col = (rng.pareto(1.3, n_rows) + 1.0) * np.exp(shift) * (1 + j % 7)
        if name in INTEGER or name in BINARY:
            cells[name] = [str(int(v)) for v in np.floor(col)]
        else:
            cells[name] = ["%.6g" % v for v in col]
    lines = [",".join(COLUMNS)]
    lines += [",".join(row) for row in zip(*(cells[c] for c in COLUMNS))]
    return "\n".join(lines) + "\n"


def schema() -> dict:
    """The edgenet config ``schema`` section for this CSV: every column but
    the label is a selected feature."""
    kinds = {c: "categorical" for c in CATEGORICAL}
    kinds["label"] = "label"
    return {"columns": [{"name": c, "kind": kinds.get(c, "numeric")} for c in COLUMNS],
            "selected_features": [c for c in COLUMNS if c != "label"]}
