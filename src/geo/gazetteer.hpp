#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/geo.hpp"

namespace tero::geo {

enum class PlaceKind { kCity, kRegion, kCountry };

/// One gazetteer entry. Regions are the largest sub-division of a country
/// (a US state, a Swiss canton, a French province — §3.3.2); cities belong to
/// a region (possibly empty for small countries) and a country.
struct Place {
  std::string name;
  PlaceKind kind = PlaceKind::kCountry;
  std::string region;     ///< parent region (cities only; may be empty)
  std::string country;    ///< parent country (cities and regions)
  std::string continent;  ///< "NA", "SA", "EU", "AS", "OC", "AF"
  LatLon center;
  double mean_radius_km = 0.0;  ///< avg distance of a point from the centre
  double weight = 0.0;          ///< relative streamer-population weight
  std::vector<std::string> aliases;

  [[nodiscard]] Location location() const;
};

/// Static share-of-world data used by Fig. 7 (internet users & population by
/// continent, from the paper's source [5]).
struct ContinentShare {
  std::string continent;
  double internet_users = 0.0;  ///< fraction of world Internet users
  double population = 0.0;      ///< fraction of world population
};

/// A synthetic-but-realistic world database: ~45 countries, the regions and
/// cities the paper's figures reference, real-ish coordinates so geodesic
/// distances (and hence latency baselines) are plausible. Name lookup is
/// case-insensitive and alias-aware; names may be ambiguous (e.g. "Georgia"
/// is both a US state and a country) — exactly the ambiguity that makes
/// geoparsing hard (§3.1). The constructor builds a case-folded name/alias
/// index, so every lookup is one hash probe instead of a scan of all places.
class Gazetteer {
 public:
  /// The process-wide world database (immutable after construction).
  static const Gazetteer& world();

  [[nodiscard]] std::span<const Place> places() const noexcept {
    return places_;
  }
  [[nodiscard]] std::span<const ContinentShare> continent_shares()
      const noexcept {
    return shares_;
  }

  /// All entries whose name or alias equals `name` (case-insensitive), in
  /// places() order, each place at most once.
  [[nodiscard]] std::vector<const Place*> find_all(std::string_view name) const;

  /// Places whose name, at least `min_name_size` characters long, occurs
  /// inside `text` (case-insensitive), in places() order.
  [[nodiscard]] std::vector<const Place*> find_within(
      std::string_view text, std::size_t min_name_size) const;

  /// The unique match of the given kind, or nullptr if none/ambiguous.
  [[nodiscard]] const Place* find(std::string_view name, PlaceKind kind) const;

  /// First match of any kind preferring city > region > country, or nullptr.
  [[nodiscard]] const Place* find_any(std::string_view name) const;

  /// Most specific place matching a location tuple, or nullptr.
  [[nodiscard]] const Place* resolve(const Location& loc) const;

  /// Geometric centre / mean radius of a location tuple (falls back through
  /// city -> region -> country). Throws std::out_of_range if unknown.
  [[nodiscard]] LatLon center_of(const Location& loc) const;
  [[nodiscard]] double mean_radius_of(const Location& loc) const;

  /// All places of one kind.
  [[nodiscard]] std::vector<const Place*> all_of(PlaceKind kind) const;

  /// Regions belonging to a country / cities belonging to a region.
  [[nodiscard]] std::vector<const Place*> regions_of(
      std::string_view country) const;
  [[nodiscard]] std::vector<const Place*> cities_of(
      std::string_view region, std::string_view country) const;

  explicit Gazetteer(std::vector<Place> places,
                     std::vector<ContinentShare> shares);

 private:
  /// Indices into places_ of every place a name or alias names.
  [[nodiscard]] std::span<const std::uint32_t> lookup(
      std::string_view name) const;

  std::vector<Place> places_;
  std::vector<ContinentShare> shares_;
  /// Case-folded name/alias -> place indices, ascending. Indices rather
  /// than pointers keep a copied Gazetteer pointing at its own places.
  std::unordered_map<std::string, std::vector<std::uint32_t>> index_;
  std::vector<std::string> lower_names_;  ///< to_lower(places_[i].name)
};

/// The raw data backing Gazetteer::world() (defined in gazetteer_data.cpp).
[[nodiscard]] std::vector<Place> builtin_places();
[[nodiscard]] std::vector<ContinentShare> builtin_continent_shares();

}  // namespace tero::geo
