"""Report tests: Figures 6–7 (service popularity and volume)."""

import numpy as np
import pytest

from repro.analysis.reports import fig6_service_popularity, fig7_service_volume
from repro.traffic.services import ServiceCategory


@pytest.fixture(scope="module")
def fig6(small_rollup):
    return fig6_service_popularity.from_rollup(small_rollup)


@pytest.fixture(scope="module")
def fig7(small_frame):
    return fig7_service_volume.compute(small_frame)


def test_fig6_values_are_percentages(fig6):
    for service, row in fig6.matrix.items():
        for country, value in row.items():
            assert 0.0 <= value <= 100.0, (service, country)


def test_fig6_tracks_paper_matrix(fig6):
    """Measured popularity tracks the published heatmap.

    Per-cell tolerance is wide (the session fixture has only ~300
    customers), but the mean absolute error across the checked block
    must stay small."""
    errors = []
    for service in ("Google", "Whatsapp", "Instagram", "Tiktok", "Netflix", "Spotify"):
        for country in ("Congo", "Nigeria", "Spain", "UK"):
            paper = fig6_service_popularity.PAPER_MATRIX[service][country]
            measured = fig6.popularity(service, country)
            errors.append(abs(measured - paper))
            assert measured == pytest.approx(paper, abs=20), (service, country)
    assert np.mean(errors) < 10.0


def test_fig6_orderings(fig6):
    # WeChat is an African (Chinese-community) phenomenon
    assert fig6.popularity("Wechat", "Congo") > fig6.popularity("Wechat", "Spain")
    # Paid video is European
    assert fig6.popularity("Primevideo", "UK") > fig6.popularity("Primevideo", "Congo")
    assert fig6.popularity("Netflix", "Ireland") > fig6.popularity("Netflix", "Congo")
    # WhatsApp rivals Google everywhere (Section 5)
    assert fig6.popularity("Whatsapp", "Congo") > 40


def test_fig6_average(fig6):
    avg = fig6.average("Google")
    assert 50 <= avg <= 80


def test_fig7_chat_gap(fig7):
    """Chat: Congo ≈250 MB median vs <25 MB in Europe (Figure 7)."""
    congo = fig7.median_mb(ServiceCategory.CHAT, "Congo")
    spain = fig7.median_mb(ServiceCategory.CHAT, "Spain")
    assert congo > 100
    assert spain < 30
    assert congo > 8 * spain


def test_fig7_social_gap(fig7):
    congo = fig7.median_mb(ServiceCategory.SOCIAL, "Congo")
    europe = np.mean([
        fig7.median_mb(ServiceCategory.SOCIAL, c) for c in ("Spain", "UK", "Ireland")
    ])
    assert congo > 4 * europe


def test_fig7_video_differences_smaller(fig7):
    """Video medians are comparable across continents (Figure 7)."""
    congo = fig7.median_mb(ServiceCategory.VIDEO, "Congo")
    spain = fig7.median_mb(ServiceCategory.VIDEO, "Spain")
    ratio = max(congo, spain) / min(congo, spain)
    chat_ratio = fig7.median_mb(ServiceCategory.CHAT, "Congo") / fig7.median_mb(
        ServiceCategory.CHAT, "Spain"
    )
    assert ratio < chat_ratio / 2


def test_fig7_audio_small_everywhere(fig7):
    for country in ("Congo", "Spain", "UK"):
        assert fig7.median_mb(ServiceCategory.AUDIO, country) < 60


def test_fig7_heavy_tail_visible(fig7):
    """Top-5 % of Congo chat users above ~1–2 GB (community APs)."""
    assert fig7.p95_mb(ServiceCategory.CHAT, "Congo") > 800


def test_renders(small_frame, fig6, fig7):
    assert "Figure 6" in fig6_service_popularity.render(fig6)
    assert "Figure 7" in fig7_service_volume.render(fig7)
