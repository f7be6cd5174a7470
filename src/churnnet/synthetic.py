"""Deterministic generator of a synthetic cellular-churn dataset.

Produces customer records with the same twenty fields, value ranges and
class balance as the classic churn benchmark: usage minutes with linked
per-minute charges, optional international and voice-mail plans, and a
churn label driven by a few crisp behavioral causes (an international plan
with heavy international use, frequent service calls, very heavy daytime
use) on top of a small unexplained base rate. Same n and seed, same file.

Run as a script to write a CSV:

    python -m churnnet.synthetic --out churn.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data

STATES = (
    "AK AL AR AZ CA CO CT DC DE FL GA HI IA ID IL IN KS KY LA MA MD ME MI "
    "MN MO MS MT NC ND NE NH NJ NM NV NY OH OK OR PA RI SC SD TN TX UT VA "
    "VT WA WI WV WY"
).split()
AREA_CODES = ("408", "415", "510")

# Per-minute billing rates; each charge column is a rounded multiple of its
# minutes column, as in the original data.
DAY_RATE = 0.17
EVE_RATE = 0.085
NIGHT_RATE = 0.045
INTL_RATE = 0.27

# Churn causes, applied in priority order (intl > service > day).
BASE_CHURN_P = 0.05
INTL_TRIGGER_MINUTES = 12.0
INTL_CHURN_P = 0.87
SERVICE_TRIGGER_CALLS = 4
SERVICE_CHURN_P = 0.85
DAY_TRIGGER_MINUTES = 265.0
DAY_CHURN_P = 0.82

DEFAULT_N = 3333


def generate(n: int = DEFAULT_N, seed: int = 0) -> list[data.CustomerRecord]:
    """Generate n customer records, fully determined by (n, seed)."""
    rng = np.random.default_rng(seed)

    state = rng.choice(STATES, size=n)
    account_length = np.clip(np.rint(rng.normal(101, 39, n)), 1, 243).astype(int)
    area_code = rng.choice(AREA_CODES, size=n, p=[0.25, 0.5, 0.25])
    phone_a = rng.integers(100, 1000, n)
    phone_b = rng.integers(0, 10000, n)
    intl_plan = rng.random(n) < 0.097
    vmail_plan = rng.random(n) < 0.277
    vmail_msgs = np.where(
        vmail_plan, np.clip(np.rint(rng.normal(29, 7, n)), 4, 51), 0
    ).astype(int)

    day_minutes = np.round(np.maximum(0.0, rng.normal(180, 54, n)), 1)
    day_calls = np.clip(np.rint(rng.normal(100, 20, n)), 0, 165).astype(int)
    eve_minutes = np.round(np.maximum(0.0, rng.normal(200, 50, n)), 1)
    eve_calls = np.clip(np.rint(rng.normal(100, 20, n)), 0, 165).astype(int)
    night_minutes = np.round(np.maximum(0.0, rng.normal(201, 50, n)), 1)
    night_calls = np.clip(np.rint(rng.normal(100, 20, n)), 0, 165).astype(int)
    intl_minutes = np.round(np.maximum(0.0, rng.normal(10.2, 2.8, n)), 1)
    intl_calls = np.clip(rng.poisson(4.4, n), 0, 20).astype(int)
    service_calls = np.clip(rng.poisson(1.5, n), 0, 9).astype(int)

    churn_p = np.full(n, BASE_CHURN_P)
    churn_p[day_minutes >= DAY_TRIGGER_MINUTES] = DAY_CHURN_P
    churn_p[service_calls >= SERVICE_TRIGGER_CALLS] = SERVICE_CHURN_P
    churn_p[intl_plan & (intl_minutes >= INTL_TRIGGER_MINUTES)] = INTL_CHURN_P
    churn = rng.random(n) < churn_p

    phone_number = [f"{a}-{b:04d}" for a, b in zip(phone_a.tolist(), phone_b.tolist())]
    columns = {
        "state": state,
        "account_length": account_length,
        "area_code": area_code,
        "phone_number": np.array(phone_number),
        "international_plan": intl_plan,
        "voice_mail_plan": vmail_plan,
        "num_vmail_messages": vmail_msgs,
        "total_day_minutes": day_minutes,
        "total_day_calls": day_calls,
        "total_day_charge": np.round(day_minutes * DAY_RATE, 2),
        "total_eve_minutes": eve_minutes,
        "total_eve_calls": eve_calls,
        "total_eve_charge": np.round(eve_minutes * EVE_RATE, 2),
        "total_night_minutes": night_minutes,
        "total_night_calls": night_calls,
        "total_night_charge": np.round(night_minutes * NIGHT_RATE, 2),
        "total_intl_minutes": intl_minutes,
        "total_intl_calls": intl_calls,
        "total_intl_charge": np.round(intl_minutes * INTL_RATE, 2),
        "customer_service_calls": service_calls,
    }
    return data.CustomerTable(columns, churn, np.arange(n)).records()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write a synthetic churn CSV with a reproducible seed."
    )
    parser.add_argument("--out", default="churn.csv", help="output CSV path")
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="number of customers")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    args = parser.parse_args(argv)

    records = generate(args.n, args.seed)
    data.write_csv(records, args.out)
    rate = sum(r.churn for r in records) / len(records)
    print(
        f"wrote {len(records)} records to {args.out} (churn rate {rate:.1%})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
