#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "geo/gazetteer.hpp"
#include "geo/geo.hpp"
#include "geo/servers.hpp"
#include "util/strings.hpp"

namespace tero::geo {
namespace {

TEST(Haversine, ZeroForSamePoint) {
  const LatLon paris{48.86, 2.35};
  EXPECT_NEAR(haversine_km(paris, paris), 0.0, 1e-9);
}

TEST(Haversine, ParisToLondonRoughly343Km) {
  const LatLon paris{48.8566, 2.3522};
  const LatLon london{51.5074, -0.1278};
  EXPECT_NEAR(haversine_km(paris, london), 343.0, 10.0);
}

TEST(Haversine, Symmetric) {
  const LatLon a{10.0, 20.0};
  const LatLon b{-30.0, 150.0};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(Haversine, AntipodalIsHalfCircumference) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 180.0};
  EXPECT_NEAR(haversine_km(a, b), 20015.0, 30.0);
}

TEST(Location, GranularityLadder) {
  EXPECT_EQ((Location{"", "", "France"}).granularity(),
            Granularity::kCountry);
  EXPECT_EQ((Location{"", "Ile-de-France", "France"}).granularity(),
            Granularity::kRegion);
  EXPECT_EQ((Location{"Paris", "Ile-de-France", "France"}).granularity(),
            Granularity::kCity);
}

TEST(Location, CompatibilityIgnoresMissingFields) {
  const Location california{"", "California", "United States"};
  const Location los_angeles{"Los Angeles", "California", "United States"};
  const Location texas{"", "Texas", "United States"};
  EXPECT_TRUE(california.compatible_with(los_angeles));
  EXPECT_TRUE(los_angeles.compatible_with(california));
  EXPECT_FALSE(texas.compatible_with(california));
}

TEST(Location, SubsumptionIsStrict) {
  const Location country{"", "", "United States"};
  const Location region{"", "California", "United States"};
  EXPECT_TRUE(region.subsumes(country));
  EXPECT_FALSE(country.subsumes(region));
  EXPECT_FALSE(region.subsumes(region));
}

TEST(CorrectedDistance, AddsMeanRadius) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 1.0};
  const double geodesic = haversine_km(a, b);
  EXPECT_NEAR(corrected_distance_km(a, 50.0, b), geodesic + 50.0, 1e-9);
}

TEST(CorrectedDistance, NonZeroWithinSameCity) {
  // Streamer in Amsterdam playing on the Amsterdam server (§3.3.3).
  const LatLon amsterdam{52.37, 4.90};
  EXPECT_GT(corrected_distance_km(amsterdam, 15.0, amsterdam), 0.0);
}

TEST(Gazetteer, FindsCountriesByAlias) {
  const auto& world = Gazetteer::world();
  const Place* usa = world.find("USA", PlaceKind::kCountry);
  ASSERT_NE(usa, nullptr);
  EXPECT_EQ(usa->name, "United States");
  const Place* uk = world.find("UK", PlaceKind::kCountry);
  ASSERT_NE(uk, nullptr);
  EXPECT_EQ(uk->name, "United Kingdom");
}

TEST(Gazetteer, GeorgiaIsAmbiguousAcrossKinds) {
  const auto& world = Gazetteer::world();
  const auto matches = world.find_all("Georgia");
  EXPECT_EQ(matches.size(), 2u);  // US state + country
  // Unique within each kind.
  EXPECT_NE(world.find("Georgia", PlaceKind::kRegion), nullptr);
  EXPECT_NE(world.find("Georgia", PlaceKind::kCountry), nullptr);
}

TEST(Gazetteer, FindAnyPrefersCity) {
  const auto& world = Gazetteer::world();
  const Place* ny = world.find_any("New York");
  ASSERT_NE(ny, nullptr);
  EXPECT_EQ(ny->kind, PlaceKind::kCity);
}

TEST(Gazetteer, ResolveLocationTuples) {
  const auto& world = Gazetteer::world();
  const Place* chicago =
      world.resolve(Location{"Chicago", "", "United States"});
  ASSERT_NE(chicago, nullptr);
  EXPECT_EQ(chicago->region, "Illinois");
  const Place* bolivia = world.resolve(Location{"", "", "Bolivia"});
  ASSERT_NE(bolivia, nullptr);
  EXPECT_EQ(world.resolve(Location{"Atlantis", "", "Neverland"}), nullptr);
}

TEST(Gazetteer, CenterAndRadiusThrowOnUnknown) {
  const auto& world = Gazetteer::world();
  EXPECT_NO_THROW({ (void)world.center_of(Location{"", "", "France"}); });
  EXPECT_THROW((void)world.center_of(Location{"", "", "Narnia"}),
               std::out_of_range);
}

TEST(Gazetteer, RegionsAndCitiesOf) {
  const auto& world = Gazetteer::world();
  const auto us_regions = world.regions_of("United States");
  EXPECT_GT(us_regions.size(), 15u);
  const auto ca_cities = world.cities_of("California", "United States");
  EXPECT_GE(ca_cities.size(), 2u);  // LA + SF
}

TEST(Gazetteer, ContinentSharesRoughlyNormalized) {
  double internet = 0.0;
  double population = 0.0;
  for (const auto& share : Gazetteer::world().continent_shares()) {
    internet += share.internet_users;
    population += share.population;
  }
  EXPECT_NEAR(internet, 1.0, 0.05);
  EXPECT_NEAR(population, 1.0, 0.05);
}

// ---- name index vs linear scan ---------------------------------------------
//
// The lookups as they were before the constructor built its name index,
// kept here as the reference the index must reproduce exactly: same
// pointers, same order.

std::vector<const Place*> linear_find_all(const Gazetteer& g,
                                          std::string_view name) {
  std::vector<const Place*> matches;
  for (const auto& place : g.places()) {
    if (util::iequals(place.name, name)) {
      matches.push_back(&place);
      continue;
    }
    for (const auto& alias : place.aliases) {
      if (util::iequals(alias, name)) {
        matches.push_back(&place);
        break;
      }
    }
  }
  return matches;
}

const Place* linear_find(const Gazetteer& g, std::string_view name,
                         PlaceKind kind) {
  const Place* found = nullptr;
  for (const Place* place : linear_find_all(g, name)) {
    if (place->kind != kind) continue;
    if (found != nullptr) return nullptr;
    found = place;
  }
  return found;
}

const Place* linear_find_any(const Gazetteer& g, std::string_view name) {
  const auto matches = linear_find_all(g, name);
  for (auto kind :
       {PlaceKind::kCity, PlaceKind::kRegion, PlaceKind::kCountry}) {
    for (const Place* place : matches) {
      if (place->kind == kind) return place;
    }
  }
  return nullptr;
}

const Place* linear_resolve(const Gazetteer& g, const Location& loc) {
  const auto country_ok = [&](const Place& place) {
    return loc.country.empty() || util::iequals(place.country, loc.country);
  };
  if (!loc.city.empty()) {
    for (const auto& place : g.places()) {
      if (place.kind == PlaceKind::kCity &&
          util::iequals(place.name, loc.city) && country_ok(place)) {
        return &place;
      }
    }
  }
  if (!loc.region.empty()) {
    for (const auto& place : g.places()) {
      if (place.kind == PlaceKind::kRegion &&
          util::iequals(place.name, loc.region) && country_ok(place)) {
        return &place;
      }
    }
  }
  if (!loc.country.empty()) {
    for (const auto& place : g.places()) {
      if (place.kind == PlaceKind::kCountry &&
          util::iequals(place.name, loc.country)) {
        return &place;
      }
    }
  }
  return nullptr;
}

std::vector<const Place*> linear_find_within(const Gazetteer& g,
                                             std::string_view text) {
  std::vector<const Place*> matches;
  for (const auto& place : g.places()) {
    if (place.name.size() >= 5 && util::icontains(text, place.name)) {
      matches.push_back(&place);
    }
  }
  return matches;
}

std::string upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(
                          static_cast<unsigned char>(c)));
  return out;
}

std::string mixed(std::string_view text) {
  std::string out = util::to_lower(text);
  for (std::size_t i = 0; i < out.size(); i += 2) {
    out[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[i])));
  }
  return out;
}

void expect_index_matches_scan(const Gazetteer& g,
                               const std::vector<std::string>& names) {
  for (const auto& name : names) {
    for (const std::string& v :
         {name, upper(name), util::to_lower(name), mixed(name)}) {
      EXPECT_EQ(g.find_all(v), linear_find_all(g, v)) << v;
      for (auto kind :
           {PlaceKind::kCity, PlaceKind::kRegion, PlaceKind::kCountry}) {
        EXPECT_EQ(g.find(v, kind), linear_find(g, v, kind)) << v;
      }
      EXPECT_EQ(g.find_any(v), linear_find_any(g, v)) << v;
      for (const Location& loc :
           {Location{v, "", ""}, Location{"", v, ""}, Location{"", "", v},
            Location{v, "", "Georgia"}, Location{v, v, v}}) {
        EXPECT_EQ(g.resolve(loc), linear_resolve(g, loc)) << v;
      }
      for (const std::string& text : {v, v + "ian", "the" + v + "s"}) {
        EXPECT_EQ(g.find_within(text, 5), linear_find_within(g, text))
            << text;
      }
    }
  }
}

TEST(GazetteerIndex, MatchesLinearScanForEveryNameAndAlias) {
  const auto& world = Gazetteer::world();
  std::vector<std::string> names = {
      "Georgia", "georgia", "New York", "New York City", "Paris Hilton",
      "Atlantis", "Narnia", "", " ", "a", "US", "UK", "Denmarkian",
      "Turkey sandwiches", "Gamer", "League of Legends"};
  for (const auto& place : world.places()) {
    names.push_back(place.name);
    names.insert(names.end(), place.aliases.begin(), place.aliases.end());
  }
  expect_index_matches_scan(world, names);

  // Location tuples of every place, as stored and case-changed.
  for (const auto& place : world.places()) {
    const Location loc = place.location();
    for (const Location& v :
         {loc, Location{upper(loc.city), upper(loc.region),
                        upper(loc.country)},
          Location{mixed(loc.city), loc.region, util::to_lower(loc.country)},
          Location{loc.city, "", ""}, Location{"", loc.region, ""}}) {
      EXPECT_EQ(world.resolve(v), linear_resolve(world, v)) << v.to_string();
    }
  }
}

TEST(GazetteerIndex, AmbiguousAndRepeatedKeysKeepPlaceOrderOnce) {
  // A place whose alias repeats its own name (in another case) and a second
  // alias shared with a later place: the index lists each place once per
  // key, in places() order.
  Place city;
  city.name = "Springfield";
  city.kind = PlaceKind::kCity;
  city.region = "Illinois";
  city.country = "United States";
  city.aliases = {"SPRINGFIELD", "Capital", "springfield"};
  Place region;
  region.name = "Capital";
  region.kind = PlaceKind::kRegion;
  region.country = "Neverland";
  region.aliases = {"Springfield"};
  Place country;
  country.name = "Neverland";
  country.aliases = {"capital", "CAPITAL"};
  const Gazetteer g({city, region, country}, {});

  const auto capital = g.find_all("capital");
  ASSERT_EQ(capital.size(), 3u);
  EXPECT_EQ(capital[0]->name, "Springfield");
  EXPECT_EQ(capital[1]->name, "Capital");
  EXPECT_EQ(capital[2]->name, "Neverland");
  expect_index_matches_scan(
      g, {"Springfield", "Capital", "Neverland", "Illinois", "Spring"});

  // A copy answers from its own places, not the original's.
  const Gazetteer copy = g;
  ASSERT_EQ(copy.find_all("springfield").size(), 2u);
  EXPECT_EQ(copy.find_all("springfield")[0], &copy.places()[0]);
}

TEST(GameCatalog, HasNineGamesOneWithoutServers) {
  const auto& catalog = GameCatalog::builtin();
  EXPECT_EQ(catalog.games().size(), 9u);
  int without = 0;
  for (const auto& game : catalog.games()) {
    if (!game.servers_known()) ++without;
  }
  EXPECT_EQ(without, 1);  // App. C: 8 of 9 disclosed
}

struct PrimaryServerCase {
  const char* game;
  Location location;
  const char* expected_city;
};

class PrimaryServerTest : public ::testing::TestWithParam<PrimaryServerCase> {};

TEST_P(PrimaryServerTest, MatchesPaperTable6) {
  const auto& catalog = GameCatalog::builtin();
  const auto& param = GetParam();
  const Game* game = catalog.find(param.game);
  ASSERT_NE(game, nullptr);
  const GameServer* server = catalog.primary_server(*game, param.location);
  ASSERT_NE(server, nullptr) << param.location.to_string();
  EXPECT_EQ(server->city, param.expected_city);
}

INSTANTIATE_TEST_SUITE_P(
    Table6, PrimaryServerTest,
    ::testing::Values(
        // League of Legends (Table 6) — the paper's §3.3.3 examples.
        PrimaryServerCase{"League of Legends",
                          {"", "", "Netherlands"},
                          "Amsterdam"},
        PrimaryServerCase{"League of Legends",
                          {"", "Illinois", "United States"},
                          "Chicago"},
        PrimaryServerCase{"League of Legends",
                          {"", "Hawaii", "United States"},
                          "Chicago"},
        PrimaryServerCase{"League of Legends", {"", "", "Brazil"}, "Sao Paulo"},
        PrimaryServerCase{"League of Legends", {"", "", "Ecuador"}, "Miami"},
        PrimaryServerCase{"League of Legends", {"", "", "Bolivia"}, "Santiago"},
        PrimaryServerCase{"League of Legends", {"", "", "Greece"}, "Amsterdam"},
        PrimaryServerCase{"League of Legends", {"", "", "Turkey"}, "Istanbul"},
        PrimaryServerCase{"League of Legends",
                          {"", "", "Saudi Arabia"},
                          "Istanbul"},
        PrimaryServerCase{"League of Legends",
                          {"", "", "South Korea"},
                          "Seoul"},
        PrimaryServerCase{"League of Legends", {"", "", "Japan"}, "Tokyo"},
        PrimaryServerCase{"League of Legends",
                          {"", "", "Australia"},
                          "Sydney"},
        PrimaryServerCase{"League of Legends",
                          {"", "", "El Salvador"},
                          "Miami"},
        PrimaryServerCase{"League of Legends", {"", "", "Jamaica"}, "Miami"},
        // Genshin Impact: Americas -> Virginia site (Ashburn), EU+ME ->
        // Frankfurt, Asia -> Tokyo.
        PrimaryServerCase{"Genshin Impact",
                          {"", "California", "United States"},
                          "Ashburn"},
        PrimaryServerCase{"Genshin Impact", {"", "", "Turkey"}, "Frankfurt"},
        PrimaryServerCase{"Genshin Impact", {"", "", "Japan"}, "Tokyo"},
        // Call of Duty: closest of many NA servers (by corrected distance
        // from the region's centroid).
        PrimaryServerCase{"Call of Duty Warzone",
                          {"", "Illinois", "United States"},
                          "St. Louis"},
        PrimaryServerCase{"Call of Duty Warzone",
                          {"Chicago", "Illinois", "United States"},
                          "Chicago"},
        PrimaryServerCase{"Call of Duty Warzone",
                          {"", "California", "United States"},
                          "San Francisco"},
        PrimaryServerCase{"Call of Duty Warzone",
                          {"Los Angeles", "California", "United States"},
                          "Los Angeles"},
        PrimaryServerCase{"Call of Duty Warzone",
                          {"", "", "United Kingdom"},
                          "London"}));

TEST(GameCatalog, DistanceToPrimaryNegativeWhenUnknown) {
  const auto& catalog = GameCatalog::builtin();
  const Game* apex = catalog.find("Apex Legends");
  ASSERT_NE(apex, nullptr);
  EXPECT_LT(catalog.distance_to_primary_km(
                *apex, Location{"", "", "France"}),
            0.0);
}

TEST(GameCatalog, CloserLocationHasSmallerDistance) {
  const auto& catalog = GameCatalog::builtin();
  const Game* lol = catalog.find("League of Legends");
  ASSERT_NE(lol, nullptr);
  const double illinois = catalog.distance_to_primary_km(
      *lol, Location{"", "Illinois", "United States"});
  const double hawaii = catalog.distance_to_primary_km(
      *lol, Location{"", "Hawaii", "United States"});
  EXPECT_GT(hawaii, illinois);
  EXPECT_GT(hawaii, 6000.0);  // paper: Hawaii ~6,832 km from Chicago
}

}  // namespace
}  // namespace tero::geo
