"""Handset application logic: spoken obstacle announcements, push-to-talk
voice commands, location fixes with provider fallback, and the periodic
upload schedule with an offline queue.

The whole app is one logical event loop consuming a merged, time-ordered
stream of link tokens and user events; the uploader is a timer-driven step
inside that loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .errors import ConfigError
from .link import ObstacleMessage


class Language(Enum):
    BENGALI = "bengali"
    ENGLISH = "english"


class Provider(Enum):
    GPS = "gps"
    NETWORK = "network"


# Default spoken phrases.  Placeholder wording, replaceable via the config
# file; the Bengali strings exercise the non-ASCII path end to end.
DEFAULT_PHRASES: dict[tuple[ObstacleMessage, Language], str] = {
    (ObstacleMessage.GROUND, Language.ENGLISH): "Obstacle on the ground ahead",
    (ObstacleMessage.LEFT, Language.ENGLISH): "Obstacle on your left",
    (ObstacleMessage.RIGHT, Language.ENGLISH): "Obstacle on your right",
    (ObstacleMessage.GROUND, Language.BENGALI): "সামনে মাটিতে বাধা আছে",
    (ObstacleMessage.LEFT, Language.BENGALI): "বাম দিকে বাধা আছে",
    (ObstacleMessage.RIGHT, Language.BENGALI): "ডান দিকে বাধা আছে",
}

# Voice commands after normalization (lowercase, trimmed, whitespace collapsed).
DEFAULT_COMMANDS: dict[str, str] = {
    "i need help": "call_emergency",
    "stop speaking": "mute",
    "start speaking": "unmute",
}

_COMMAND_ACTIONS = {"call_emergency", "mute", "unmute"}


def normalize_utterance(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class AppConfig:
    language: Language = Language.ENGLISH
    phrases: dict[tuple[ObstacleMessage, Language], str] = field(
        default_factory=lambda: dict(DEFAULT_PHRASES)
    )
    emergency_number: str = "+15555550100"
    upload_interval_ms: int = 300_000
    announce_repeat_ms: int = 2000
    commands: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COMMANDS))
    device_id: str = "walker-1"
    listen_window_ms: int = 10_000
    gps_sigma_m: float = 5.0
    network_sigma_m: float = 50.0

    def __post_init__(self) -> None:
        for message in ObstacleMessage:
            for language in Language:
                if (message, language) not in self.phrases:
                    raise ConfigError(
                        f"phrase table missing entry for ({message.value}, {language.value})"
                    )
        for text, action in self.commands.items():
            if normalize_utterance(text) != text:
                raise ConfigError(f"command key {text!r} is not in normalized form")
            if action not in _COMMAND_ACTIONS:
                raise ConfigError(f"unknown command action {action!r}")
        if self.upload_interval_ms <= 0 or self.announce_repeat_ms <= 0:
            raise ConfigError("intervals must be positive")
        if self.listen_window_ms <= 0:
            raise ConfigError("listen_window_ms must be positive")
        if self.gps_sigma_m < 0 or self.network_sigma_m < 0:
            raise ConfigError("provider sigmas must be >= 0")
        if not self.device_id:
            raise ConfigError("device_id must be non-empty")


# --------------------------------------------------------------------------
# App actions: the externally observable outputs of the event loop.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CallEmergency:
    number: str


@dataclass(frozen=True)
class SetMuted:
    muted: bool


# --------------------------------------------------------------------------
# Location fixes.
# --------------------------------------------------------------------------

_METERS_PER_DEG_LAT = 111_320.0


def select_provider(gps_available: bool, network_available: bool) -> Optional[Provider]:
    """GPS when it has a lock, the network provider as fallback, else nothing."""
    if gps_available:
        return Provider.GPS
    if network_available:
        return Provider.NETWORK
    return None


def make_fix(true_lat: float, true_lon: float, provider: Provider, timestamp: str,
             cfg: AppConfig, rng: random.Random) -> dict:
    """Build a fix as the body a POST to the tracking server carries: the true
    position plus provider-dependent isotropic error, and the provider's value.

    GPS and network accuracy are configured in metres and converted to
    degrees through a local flat-earth metric.  Coordinates are clamped to
    the valid ranges and rounded to six decimal places (about 0.1 m).
    """
    sigma_m = cfg.gps_sigma_m if provider is Provider.GPS else cfg.network_sigma_m
    east_m = rng.gauss(0.0, sigma_m)
    north_m = rng.gauss(0.0, sigma_m)
    meters_per_deg_lon = _METERS_PER_DEG_LAT * max(math.cos(math.radians(true_lat)), 0.01)
    lat = true_lat + north_m / _METERS_PER_DEG_LAT
    lon = true_lon + east_m / meters_per_deg_lon
    lat = min(90.0, max(-90.0, lat))
    lon = min(180.0, max(-180.0, lon))
    return {"device_id": cfg.device_id, "latitude": round(lat, 6),
            "longitude": round(lon, 6), "timestamp": timestamp, "provider": provider.value}


# --------------------------------------------------------------------------
# Periodic uploader with offline queue.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UploadAttempt:
    """Outcome of one fix handed to the uploader at a due instant."""

    fix: dict
    delivered: bool
    due_ms: int


class Uploader:
    """Timer-driven upload step.

    Fires at fixed multiples of the upload interval (never at t=0).  A due
    instant with no provider is skipped outright.  When delivery fails the
    fix joins an ordered pending queue, and the whole queue is flushed ahead
    of the current fix on the next successful delivery.
    """

    def __init__(self, interval_ms: int) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.interval_ms = interval_ms
        self.next_due_ms = interval_ms
        self.pending: list[dict] = []

    def tick(self, now_ms: int, horizon_ms: int,
             fix_at: Callable[[int], Optional[dict]],
             deliver: Callable[[dict, int], Optional[int]]) -> list[UploadAttempt]:
        """Process every due instant up to now (capped at horizon_ms).

        fix_at(due_ms) returns the fix as of that instant, or None when no
        provider is available then.  deliver(fix, due_ms) returns the
        server's record id on success and None when the server is
        unreachable at that instant.
        """
        limit = min(now_ms, horizon_ms)
        if self.next_due_ms > limit:
            return []
        attempts: list[UploadAttempt] = []
        while self.next_due_ms <= limit:
            due = self.next_due_ms
            self.next_due_ms += self.interval_ms
            fix = fix_at(due)
            if fix is None:
                continue  # no provider: nothing recorded, try next interval
            batch = self.pending + [fix]
            self.pending = []
            failed = False
            for item in batch:
                if not failed:
                    if deliver(item, due) is not None:
                        attempts.append(UploadAttempt(item, True, due))
                        continue
                    failed = True
                self.pending.append(item)
                # Queued backlog was already reported at its own due time;
                # only the fix born at this instant gets a fresh record.
                if item is fix:
                    attempts.append(UploadAttempt(item, False, due))
        return attempts


# --------------------------------------------------------------------------
# The assembled application.
# --------------------------------------------------------------------------


class AssistiveApp:
    """Event-loop state of the handset app.

    Feed it link tokens and user events; it returns what they caused: the
    phrase to speak, an emergency call or a mute switch.  Announce
    deduplication and the mute switch live here; upload scheduling is
    delegated to an Uploader owned by the caller's run loop.

    A button press opens (or re-opens) a listening window, which is one
    deadline, listen_window_ms after the press.  The next utterance closes
    it, and runs its command only if it came at or before the deadline.
    """

    def __init__(self, cfg: AppConfig) -> None:
        self.cfg = cfg
        self.muted = False
        self.listening_until_ms: Optional[int] = None
        self._last_spoken_ms: dict[ObstacleMessage, int] = {}

    # -- announcements ----------------------------------------------------

    def announce(self, message: ObstacleMessage, now_ms: int) -> Optional[str]:
        """The obstacle phrase to speak, or None if muted or a repeat came too soon."""
        if self.muted:
            return None
        last = self._last_spoken_ms.get(message)
        if last is not None and now_ms - last < self.cfg.announce_repeat_ms:
            return None
        self._last_spoken_ms[message] = now_ms
        return self.cfg.phrases[(message, self.cfg.language)]  # total: AppConfig checks it

    def handle_token(self, token: str,
                     now_ms: int) -> tuple[ObstacleMessage, Optional[str]]:
        """Decode one link token and maybe announce it: the message and the
        phrase to speak, if any.  The token must be an obstacle word, matched
        exactly; any other raises ValueError naming it."""
        message = ObstacleMessage(token)
        return message, self.announce(message, now_ms)

    # -- voice ------------------------------------------------------------

    def handle_button(self, t_ms: int) -> None:
        self.listening_until_ms = t_ms + self.cfg.listen_window_ms

    def handle_utterance(self, text: str, t_ms: int) -> Optional[CallEmergency | SetMuted]:
        """Close the listening window and run the command spoken inside it.

        Speech with no window open, after the deadline, or not in the
        command table does nothing.
        """
        deadline, self.listening_until_ms = self.listening_until_ms, None
        if deadline is None or t_ms > deadline:
            return None
        command = self.cfg.commands.get(normalize_utterance(text))
        if command == "call_emergency":
            return CallEmergency(self.cfg.emergency_number)
        if command in ("mute", "unmute"):
            self.muted = command == "mute"
            return SetMuted(self.muted)
        return None

    def handle_tick(self, t_ms: int) -> None:
        """Does nothing: handle_utterance checks the deadline, so a window never
        needs closing on time.  Kept because perfbench/tracing.py wraps the
        app's voice methods by name, this one included."""


__all__ = [
    "Language", "Provider", "DEFAULT_PHRASES", "AppConfig",
    "CallEmergency", "SetMuted", "normalize_utterance",
    "select_provider", "make_fix", "Uploader", "UploadAttempt", "AssistiveApp",
]
