#include "common/json.h"

#include <gtest/gtest.h>

namespace proteus {
namespace {

TEST(JsonTest, ParsesScalars)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("42.5", &v));
    EXPECT_DOUBLE_EQ(v.asNumber(), 42.5);
    ASSERT_TRUE(parseJson("-7", &v));
    EXPECT_DOUBLE_EQ(v.asNumber(), -7.0);
    ASSERT_TRUE(parseJson("true", &v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(parseJson("false", &v));
    EXPECT_FALSE(v.asBool());
    ASSERT_TRUE(parseJson("null", &v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(parseJson("\"hello\"", &v));
    EXPECT_EQ(v.asString(), "hello");
}

TEST(JsonTest, ParsesNestedStructures)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(
        R"({"a": [1, 2, {"b": "c"}], "d": {"e": true}})", &v));
    ASSERT_TRUE(v.isObject());
    const auto& arr = v.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[0].asNumber(), 1.0);
    EXPECT_EQ(arr[2].at("b").asString(), "c");
    EXPECT_TRUE(v.at("d").at("e").asBool());
}

TEST(JsonTest, EmptyContainers)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{}", &v));
    EXPECT_TRUE(v.isObject());
    EXPECT_TRUE(v.keys().empty());
    ASSERT_TRUE(parseJson("[]", &v));
    EXPECT_TRUE(v.asArray().empty());
}

TEST(JsonTest, EscapeSequences)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"("a\nb\t\"c\"\\")", &v));
    EXPECT_EQ(v.asString(), "a\nb\t\"c\"\\");
}

TEST(JsonTest, UnicodeEscapes)
{
    JsonValue v;
    // Control characters (how the trace exporter writes them).
    ASSERT_TRUE(parseJson(R"("x\u0001y\u001Fz")", &v));
    EXPECT_EQ(v.asString(), std::string("x\x01y\x1Fz"));
    // BMP code points become UTF-8 (U+00E9 e-acute, U+20AC euro).
    ASSERT_TRUE(parseJson(R"("\u00E9\u20AC")", &v));
    EXPECT_EQ(v.asString(), "\xC3\xA9\xE2\x82\xAC");
    // Surrogate pair combines to U+1F600.
    ASSERT_TRUE(parseJson(R"("\uD83D\uDE00")", &v));
    EXPECT_EQ(v.asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsBadUnicodeEscapes)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(R"("\u12")", &v, &error));       // truncated
    EXPECT_FALSE(parseJson(R"("\u12GZ")", &v, &error));     // bad hex
    EXPECT_FALSE(parseJson(R"("\uD83D")", &v, &error));     // lone high
    EXPECT_FALSE(parseJson(R"("\uD83Dx")", &v, &error));    // no pair
    EXPECT_FALSE(parseJson(R"("\uD83D\u0041")", &v,
                           &error));                        // bad low
    EXPECT_FALSE(parseJson(R"("\uDE00")", &v, &error));     // lone low
}

TEST(JsonTest, WhitespaceTolerant)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("  {\n \"x\" :\t1 ,\n\"y\": [ 2 ] }\n", &v));
    EXPECT_DOUBLE_EQ(v.at("x").asNumber(), 1.0);
}

TEST(JsonTest, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{", &v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\" 1}", &v, &error));
    EXPECT_FALSE(parseJson("[1, 2,]", &v, &error));
    EXPECT_FALSE(parseJson("\"unterminated", &v, &error));
    EXPECT_FALSE(parseJson("tru", &v, &error));
    EXPECT_FALSE(parseJson("1 2", &v, &error));
}

TEST(JsonTest, AccessHelpers)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"a": 3, "s": "x", "b": true})", &v));
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 3.0);
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 7.5), 7.5);
    EXPECT_EQ(v.stringOr("s", "y"), "x");
    EXPECT_EQ(v.stringOr("missing", "y"), "y");
    EXPECT_TRUE(v.boolOr("b", false));
    EXPECT_TRUE(v.boolOr("missing", true));
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("z"));
}

TEST(JsonTest, KeysLists)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"b": 1, "a": 2})", &v));
    auto keys = v.keys();
    ASSERT_EQ(keys.size(), 2u);
}

TEST(JsonTest, DeepNestingIsAParseErrorNotACrash)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(std::string(100000, '['), &v, &err));
    EXPECT_EQ(err, "JSON nested deeper than 256 levels at offset 256");
    std::string objects;
    for (int i = 0; i < 300; ++i)
        objects += "{\"a\": ";
    EXPECT_FALSE(parseJson(objects, &v, &err));
    EXPECT_EQ(err, "JSON nested deeper than 256 levels at offset " +
                       std::to_string(256 * 6));
}

TEST(JsonTest, NestingUpToTheLimitParses)
{
    JsonValue v;
    std::string err;
    const std::string deep = std::string(kMaxJsonDepth, '[') +
                             std::string(kMaxJsonDepth, ']');
    ASSERT_TRUE(parseJson(deep, &v, &err)) << err;
    int depth = 0;
    const JsonValue* cur = &v;
    while (cur->isArray()) {
        ++depth;
        if (cur->asArray().empty())
            break;
        cur = &cur->asArray()[0];
    }
    EXPECT_EQ(depth, kMaxJsonDepth);
    // Closing a level frees it for a sibling. Appended piece by piece:
    // gcc 12 flags the chained operator+ temporaries with -Wrestrict
    // in Release builds.
    const std::string inner = deep.substr(1, deep.size() - 2);
    std::string siblings = "[";
    siblings.append(inner).append(",").append(inner).append("]");
    EXPECT_TRUE(parseJson(siblings, &v, &err)) << err;
}

}  // namespace
}  // namespace proteus
