"""The three EventStore sizes.

"In order to support a variety of use cases, the CLEO EventStore comes in
three sizes, tailored to the scale of the application: personal, group and
collaboration.  The only user interface differences between the three
sizes is the name of the software module loaded, which is also the first
word of all EventStore commands."

The classes below are exactly that: the same :class:`EventStore` behind
the two module names the flows load; a group store, which grows by merge
like the collaboration one, is ``EventStore(root, scale="group")``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.eventstore.store import EventStore


class PersonalEventStore(EventStore):
    """Self-contained store for one physicist's machine.

    "The personal EventStore was originally meant to manage user-selected
    subsets of the data on an external personal system such as a laptop or
    desktop [...] making the personal EventStore self-contained [...] and
    supporting completely disconnected operation."
    """

    def __init__(self, root: Union[str, Path], name: Optional[str] = None):
        super().__init__(root, scale="personal", name=name)


class CollaborationEventStore(EventStore):
    """The centrally managed repository; officers assign grades."""

    def __init__(self, root: Union[str, Path], name: Optional[str] = None):
        super().__init__(root, scale="collaboration", name=name)
