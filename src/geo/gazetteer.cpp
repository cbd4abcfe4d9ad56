#include "geo/gazetteer.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace tero::geo {

Location Place::location() const {
  switch (kind) {
    case PlaceKind::kCity:
      return Location{name, region, country};
    case PlaceKind::kRegion:
      return Location{"", name, country};
    case PlaceKind::kCountry:
      return Location{"", "", name};
  }
  return {};
}

Gazetteer::Gazetteer(std::vector<Place> places,
                     std::vector<ContinentShare> shares)
    : places_(std::move(places)), shares_(std::move(shares)) {
  lower_names_.reserve(places_.size());
  for (std::uint32_t i = 0; i < places_.size(); ++i) {
    const Place& place = places_[i];
    lower_names_.push_back(util::to_lower(place.name));
    const auto add = [&](const std::string& key) {
      auto& slot = index_[key];
      if (slot.empty() || slot.back() != i) slot.push_back(i);
    };
    add(lower_names_.back());
    for (const auto& alias : place.aliases) add(util::to_lower(alias));
  }
}

const Gazetteer& Gazetteer::world() {
  static const Gazetteer instance{builtin_places(),
                                  builtin_continent_shares()};
  return instance;
}

std::span<const std::uint32_t> Gazetteer::lookup(std::string_view name) const {
  const auto it = index_.find(util::to_lower(name));
  if (it == index_.end()) return {};
  return it->second;
}

std::vector<const Place*> Gazetteer::find_all(std::string_view name) const {
  std::vector<const Place*> matches;
  for (const std::uint32_t i : lookup(name)) matches.push_back(&places_[i]);
  return matches;
}

std::vector<const Place*> Gazetteer::find_within(
    std::string_view text, std::size_t min_name_size) const {
  const std::string lowered = util::to_lower(text);
  std::vector<const Place*> matches;
  for (std::size_t i = 0; i < places_.size(); ++i) {
    const std::string& name = lower_names_[i];
    if (name.size() >= min_name_size &&
        lowered.find(name) != std::string::npos) {
      matches.push_back(&places_[i]);
    }
  }
  return matches;
}

const Place* Gazetteer::find(std::string_view name, PlaceKind kind) const {
  const Place* found = nullptr;
  for (const std::uint32_t i : lookup(name)) {
    const Place* place = &places_[i];
    if (place->kind != kind) continue;
    if (found != nullptr) return nullptr;  // ambiguous within kind
    found = place;
  }
  return found;
}

const Place* Gazetteer::find_any(std::string_view name) const {
  const auto matches = lookup(name);
  for (auto kind :
       {PlaceKind::kCity, PlaceKind::kRegion, PlaceKind::kCountry}) {
    for (const std::uint32_t i : matches) {
      if (places_[i].kind == kind) return &places_[i];
    }
  }
  return nullptr;
}

const Place* Gazetteer::resolve(const Location& loc) const {
  // Tuples name places by their canonical name, not an alias: the index
  // narrows the candidates, the name check keeps aliases out.
  const auto first = [&](const std::string& name, PlaceKind kind,
                         bool check_country) -> const Place* {
    if (name.empty()) return nullptr;
    for (const std::uint32_t i : lookup(name)) {
      const Place& place = places_[i];
      if (place.kind == kind && util::iequals(place.name, name) &&
          (!check_country || loc.country.empty() ||
           util::iequals(place.country, loc.country))) {
        return &place;
      }
    }
    return nullptr;
  };
  if (const Place* city = first(loc.city, PlaceKind::kCity, true)) {
    return city;
  }
  if (const Place* region = first(loc.region, PlaceKind::kRegion, true)) {
    return region;
  }
  return first(loc.country, PlaceKind::kCountry, false);
}

LatLon Gazetteer::center_of(const Location& loc) const {
  const Place* place = resolve(loc);
  if (place == nullptr) {
    throw std::out_of_range("Gazetteer: unknown location " + loc.to_string());
  }
  return place->center;
}

double Gazetteer::mean_radius_of(const Location& loc) const {
  const Place* place = resolve(loc);
  if (place == nullptr) {
    throw std::out_of_range("Gazetteer: unknown location " + loc.to_string());
  }
  return place->mean_radius_km;
}

std::vector<const Place*> Gazetteer::all_of(PlaceKind kind) const {
  std::vector<const Place*> out;
  for (const auto& place : places_) {
    if (place.kind == kind) out.push_back(&place);
  }
  return out;
}

std::vector<const Place*> Gazetteer::regions_of(
    std::string_view country) const {
  std::vector<const Place*> out;
  for (const auto& place : places_) {
    if (place.kind == PlaceKind::kRegion &&
        util::iequals(place.country, country)) {
      out.push_back(&place);
    }
  }
  return out;
}

std::vector<const Place*> Gazetteer::cities_of(std::string_view region,
                                               std::string_view country) const {
  std::vector<const Place*> out;
  for (const auto& place : places_) {
    if (place.kind != PlaceKind::kCity) continue;
    if (!country.empty() && !util::iequals(place.country, country)) continue;
    if (!region.empty() && !util::iequals(place.region, region)) continue;
    out.push_back(&place);
  }
  return out;
}

}  // namespace tero::geo
