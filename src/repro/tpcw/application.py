"""The TPC-W application tier: fourteen interactions over stored procedures.

Plays the role of the paper's ISAPI extension: each web interaction issues
one or more ``EXEC`` calls through the DBAPI-style cursor surface of its
connection — a :class:`repro.client.Connection` over a server, an ODBC
source (:class:`~repro.mtcache.odbc.OdbcSource`), a
:class:`~repro.resilience.failover.FailoverRouter`, or a DSN — so the
same application code runs against the backend directly or against an
MTCache server: the transparency the paper is about.

Interactions keep lightweight per-user session state (current customer,
shopping-cart id, last detail item) the way the real benchmark's session
cookies do.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.tpcw.config import SUBJECTS, TITLE_WORDS, TPCWConfig

_NOW_BASE = datetime.datetime(2003, 6, 9, 12, 0, 0)


@dataclass
class UserSession:
    """Session state for one emulated browser."""

    customer_id: int
    cart_id: Optional[int] = None
    last_item: int = 1


class TPCWApplication:
    """Issues the benchmark's database requests for each interaction."""

    def __init__(self, connection, config: TPCWConfig, rng: Optional[random.Random] = None):
        if isinstance(connection, str):
            # A DSN ("tcp://host:port/tpcw", "inproc://deployment/cache0")
            # — dial it through the client API, same facade either way.
            from repro.client import connect

            connection = connect(connection)
        self.connection = connection
        self.config = config
        self.rng = rng or random.Random(config.seed + 1)
        self.db_calls = 0

    # -- helpers -------------------------------------------------------------

    def _exec(self, procedure: str, **params: Any):
        arguments = ", ".join(f"@{name} = @{name}" for name in params)
        sql = f"EXEC {procedure} {arguments}" if params else f"EXEC {procedure}"
        self.db_calls += 1
        return self.connection.cursor().execute(sql, params)

    def _now(self) -> datetime.datetime:
        return _NOW_BASE + datetime.timedelta(seconds=self.rng.randint(0, 86_400))

    def _random_subject(self) -> str:
        return SUBJECTS[self.rng.randrange(len(SUBJECTS))]

    def _random_item(self) -> int:
        return self.rng.randint(1, self.config.num_items)

    def new_session(self) -> UserSession:
        return UserSession(customer_id=self.rng.randint(1, self.config.num_customers))

    def run(self, interaction: str, session: UserSession) -> None:
        """Dispatch one interaction by name."""
        getattr(self, interaction)(session)

    # -- browse class -----------------------------------------------------------

    def home(self, session: UserSession) -> None:
        self._exec("getName", c_id=session.customer_id)
        self._exec("getRelated", i_id=session.last_item)

    def new_products(self, session: UserSession) -> None:
        self._exec("getNewProducts", subject=self._random_subject())

    def best_sellers(self, session: UserSession) -> None:
        self._exec("getBestSellers", subject=self._random_subject())

    def product_detail(self, session: UserSession) -> None:
        item = self._random_item()
        session.last_item = item
        self._exec("getBook", i_id=item)

    def search_request(self, session: UserSession) -> None:
        # Rendering the search page needs no database work beyond the
        # promotional related items.
        self._exec("getRelated", i_id=session.last_item)

    def search_results(self, session: UserSession) -> None:
        kind = self.rng.randrange(3)
        if kind == 0:
            word = TITLE_WORDS[self.rng.randrange(len(TITLE_WORDS))]
            self._exec("doTitleSearch", title=f"%{word}%")
        elif kind == 1:
            lname = f"Last{self.rng.randint(0, 40)}%"
            self._exec("doAuthorSearch", lname=lname)
        else:
            self._exec("doSubjectSearch", subject=self._random_subject())

    # -- order class -----------------------------------------------------------

    def _ensure_cart(self, session: UserSession) -> int:
        if session.cart_id is None:
            cursor = self._exec("createEmptyCart", now=self._now())
            session.cart_id = int(cursor.fetchone()[0])
        return session.cart_id

    def shopping_cart(self, session: UserSession) -> None:
        cart = self._ensure_cart(session)
        self._exec("addItem", sc_id=cart, i_id=self._random_item(), qty=self.rng.randint(1, 3))
        self._exec("refreshCartTime", sc_id=cart, now=self._now())
        self._exec("getCart", sc_id=cart)

    def customer_registration(self, session: UserSession) -> None:
        if self.rng.random() < 0.2:
            suffix = self.rng.randint(100000, 999999)
            result = self._exec(
                "enterAddress",
                street1=f"{suffix} Fresh St",
                city="Newtown",
                state="NT",
                zip=f"{suffix % 100000:05d}",
                co_id=self.rng.randint(1, self.config.num_countries),
            )
            created = self._exec(
                "createNewCustomer",
                uname=f"newuser{suffix}",
                passwd="pw",
                fname="New",
                lname="Customer",
                addr_id=int(result.fetchone()[0]),
                now=self._now(),
            )
            session.customer_id = int(created.fetchone()[0])
        else:
            self._exec("getCustomer", uname=f"user{session.customer_id}")
            self._exec("refreshSession", c_id=session.customer_id, now=self._now())

    def buy_request(self, session: UserSession) -> None:
        cart = self._ensure_cart(session)
        self._exec("getCustomer", uname=f"user{session.customer_id}")
        self._exec("getCart", sc_id=cart)
        self._exec("getCDiscount", c_id=session.customer_id)

    def buy_confirm(self, session: UserSession) -> None:
        cart = self._ensure_cart(session)
        addr_row = self._exec("getCAddr", c_id=session.customer_id).fetchone()
        addr_id = (addr_row[0] if addr_row else None) or 1
        cart_rows = self._exec("getCart", sc_id=cart).fetchall()
        if not cart_rows:
            self._exec("addItem", sc_id=cart, i_id=self._random_item(), qty=1)
            cart_rows = self._exec("getCart", sc_id=cart).fetchall()
        order = self._exec(
            "enterOrder",
            c_id=session.customer_id,
            sc_id=cart,
            ship_type="AIR",
            bill_addr=int(addr_id),
            ship_addr=int(addr_id),
            now=self._now(),
        )
        order_id = int(order.fetchone()[0])
        for line_number, row in enumerate(cart_rows, start=1):
            self._exec(
                "addOrderLine",
                ol_id=line_number,
                o_id=order_id,
                i_id=int(row[0]),
                qty=int(row[5]),
                discount=0.0,
            )
        self._exec(
            "enterCCXact",
            o_id=order_id,
            cx_type="VISA",
            cx_num=f"{4000000000000000 + order_id}",
            cx_name="Card Holder",
            amount=100.0,
            co_id=self.rng.randint(1, self.config.num_countries),
            now=self._now(),
        )
        self._exec("clearCart", sc_id=cart)
        session.cart_id = None

    def order_inquiry(self, session: UserSession) -> None:
        self._exec("getPassword", uname=f"user{session.customer_id}")

    def order_display(self, session: UserSession) -> None:
        rows = self._exec(
            "getMostRecentOrderId", uname=f"user{session.customer_id}"
        ).fetchall()
        if rows:
            order_id = int(rows[0][0])
            self._exec("getMostRecentOrderInfo", o_id=order_id)
            self._exec("getMostRecentOrderLines", o_id=order_id)

    def admin_request(self, session: UserSession) -> None:
        item = self._random_item()
        session.last_item = item
        self._exec("getBook", i_id=item)

    def admin_confirm(self, session: UserSession) -> None:
        item = session.last_item
        self._exec(
            "adminUpdate",
            i_id=item,
            cost=round(self.rng.uniform(5.0, 100.0), 2),
            image=f"img/image{item}.gif",
            thumbnail=f"img/thumb{item}.gif",
            now=self._now(),
        )
        self._exec("getBestSellers", subject=self._random_subject())
