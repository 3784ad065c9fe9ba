"""Game and instance documents.

Both formats are JSON text with every weight-like number written as a
decimal string (never scientific notation, never a JSON number), so
round-trips are bit-exact for weights of any size.

Game document::

    {"weights": ["1", "2", "3"], "quota": "4"}

Instance document: the game fields plus ``distinguished``, ``budget``,
``goal``, ``groups`` (one provenance label per player), optional
``a_players`` / ``b_players`` literal-carrier tables (``null`` marks a
deleted carrier), optional ``bands`` metadata and a free-form ``meta``
object.  Band blocks list their kind, member indices and granularity;
member weights are taken from the game on load and re-validated.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from typing import Any

from .bands import BandSystem, BlockKind, LightBlock
from .errors import FileFormatError
from .game import Game, decimal_str
from .gadgets import ControlInstance


_DECIMAL = re.compile("-?[0-9]+")
# decimal strings joined by commas; ``_parse_decimals`` also counts the
# commas, so that no entry can hide one
_DECIMALS = re.compile("-?[0-9]+(?:,-?[0-9]+)*")


def _parse_decimal(value: Any, what: str) -> int:
    if not isinstance(value, str) or not _DECIMAL.fullmatch(value):
        raise FileFormatError(f"{what} must be a decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError:  # longer than the interpreter's int/str digit limit
        return int(Decimal(value))


def _parse_decimals(values: list, what: str) -> tuple[int, ...]:
    """``_parse_decimal`` of each entry.  One match of the entries joined by
    commas checks them all; only when it fails, or an entry is past the
    int/str digit limit, are they parsed one by one, so an error names the
    first bad entry."""
    if set(map(type, values)) <= {str}:
        joined = ",".join(values)
        if joined.count(",") == len(values) - 1 and _DECIMALS.fullmatch(joined):
            try:
                return tuple(map(int, values))
            except ValueError:
                pass
    return tuple(_parse_decimal(value, what) for value in values)


def _is_array_of(value: Any, types: set[type]) -> bool:
    """Whether ``value`` is a list whose items' exact types lie in ``types``;
    ``json`` gives exact ``int`` and ``str``, and ``bool`` is not ``int``."""
    return isinstance(value, list) and set(map(type, value)) <= types


def _int_array(value: Any, what: str) -> list[int]:
    if not _is_array_of(value, {int}):
        raise FileFormatError(f"{what} must be an array of integers")
    return value


def _game_fields(game: Game) -> dict[str, Any]:
    return {
        "weights": [decimal_str(w) for w in game.weights],
        "quota": decimal_str(game.quota),
    }


# the item types of a list ``_indented`` writes in one call to the C encoder
_SCALARS = {str, int, type(None)}


def _indented(value: Any, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value written at
    the indent ``pad``.  ``indent`` keeps ``json`` off its C encoder, so
    nonempty lists and string-keyed objects are laid out here, and each
    list of strings, integers and nulls goes to the C encoder in one call,
    with the line break and indent as its item separator.  Anything else
    (a scalar, an empty list or object, a tuple, other keys) is written by
    ``json.dumps(value, indent=2)`` itself, its lines re-indented."""
    inner = pad + "  "
    if isinstance(value, list) and value:
        if set(map(type, value)) <= _SCALARS:
            items = json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
        else:
            items = (",\n" + inner).join(_indented(item, inner) for item in value)
        return "[\n" + inner + items + "\n" + pad + "]"
    if isinstance(value, dict) and value and set(map(type, value)) == {str}:
        items = (",\n" + inner).join(
            f"{json.dumps(key)}: {_indented(item, inner)}" for key, item in value.items()
        )
        return "{\n" + inner + items + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def dump_game(game: Game) -> str:
    return _indented(_game_fields(game)) + "\n"


def _parse_object(text: str, what: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise FileFormatError(f"not valid JSON: {error}") from error
    except ValueError as error:  # longer than the interpreter's int/str digit limit
        raise FileFormatError(f"unreadable JSON number: {error}") from error
    except RecursionError as error:
        raise FileFormatError("JSON nested too deeply to read") from error
    if not isinstance(document, dict):
        raise FileFormatError(f"{what} document must be a JSON object")
    return document


def _game_from_document(document: dict) -> Game:
    if "weights" not in document or "quota" not in document:
        raise FileFormatError("game document needs 'weights' and 'quota'")
    weights = document["weights"]
    if not isinstance(weights, list):
        raise FileFormatError("'weights' must be an array of decimal strings")
    return Game(_parse_decimals(weights, "weight"), _parse_decimal(document["quota"], "quota"))


def load_game(text: str) -> Game:
    return _game_from_document(_parse_object(text, "game"))


def dump_instance(instance: ControlInstance) -> str:
    return _indented(_instance_fields(instance)) + "\n"


def _instance_fields(instance: ControlInstance) -> dict[str, Any]:
    document: dict[str, Any] = {
        **_game_fields(instance.game),
        "distinguished": instance.distinguished,
        "budget": instance.budget,
        "goal": instance.goal.value,
    }
    if instance.groups is not None:
        document["groups"] = list(instance.groups)
    if instance.a_players:
        document["a_players"] = list(instance.a_players)
        document["b_players"] = list(instance.b_players)
    if instance.bands is not None:
        document["bands"] = {
            "heavy": sorted(instance.bands.heavy),
            "blocks": [
                {
                    "name": block.name,
                    "kind": block.kind.value,
                    "members": list(block.members),
                    "granularity": decimal_str(block.granularity),
                }
                for block in instance.bands.blocks
            ],
        }
    if instance.meta:
        document["meta"] = instance.meta
    return document


def load_instance(text: str) -> ControlInstance:
    return _instance_from_document(_parse_object(text, "instance"))


def load_document(text: str) -> ControlInstance | Game:
    """An instance if the document has instance fields, else a bare game."""
    document = _parse_object(text, "game")
    if "distinguished" in document:
        return _instance_from_document(document)
    return _game_from_document(document)


def _instance_from_document(document: dict) -> ControlInstance:
    game = _game_from_document(document)
    for key in ("distinguished", "budget", "goal"):
        if key not in document:
            raise FileFormatError(f"instance document needs {key!r}")
    distinguished = document["distinguished"]

    groups = None
    if "groups" in document:
        raw = document["groups"]
        if not _is_array_of(raw, {str}):
            raise FileFormatError("'groups' must be an array of strings")
        groups = raw

    def carrier_table(key: str) -> list[int | None]:
        raw = document.get(key, [])
        if not _is_array_of(raw, {int, type(None)}):
            raise FileFormatError(f"{key!r} must be an array of ints or nulls")
        return raw

    bands = None
    if "bands" in document:
        raw = document["bands"]
        if not isinstance(raw, dict) or "heavy" not in raw or "blocks" not in raw:
            raise FileFormatError("'bands' needs 'heavy' and 'blocks'")
        heavy = _int_array(raw["heavy"], "'bands.heavy'")
        raw_blocks = raw["blocks"]
        if not isinstance(raw_blocks, list) or not all(
            isinstance(b, dict) for b in raw_blocks
        ):
            raise FileFormatError("'bands.blocks' must be an array of objects")
        blocks = []
        for raw_block in raw_blocks:
            try:
                kind = BlockKind(raw_block["kind"])
            except (KeyError, ValueError):
                raise FileFormatError(f"bad block kind in {raw_block!r}")
            members = _int_array(raw_block.get("members"), "block 'members'")
            if members and (min(members) < 0 or max(members) >= game.num_players):
                for member in members:  # the first one out of range
                    game.check_player(member)
            name = raw_block.get("name", kind.value)
            if not isinstance(name, str):
                raise FileFormatError(f"block 'name' must be a string, got {name!r}")
            blocks.append(
                LightBlock(
                    name,
                    kind,
                    members,
                    [*map(game.weights.__getitem__, members)],
                    _parse_decimal(raw_block.get("granularity"), "granularity"),
                )
            )
        bands = BandSystem(
            game=game,
            distinguished=distinguished,
            heavy=heavy,
            blocks=blocks,
        )

    meta = document.get("meta", {})
    if not isinstance(meta, dict):
        raise FileFormatError("'meta' must be an object")
    return ControlInstance(
        game=game,
        distinguished=distinguished,
        budget=document["budget"],
        goal=document["goal"],
        groups=groups,
        bands=bands,
        a_players=carrier_table("a_players"),
        b_players=carrier_table("b_players"),
        meta=meta,
    )
