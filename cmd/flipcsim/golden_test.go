package main

import (
	"testing"

	"flipc/internal/goldentest"
)

func TestMain(m *testing.M) { goldentest.Main(m, main) }

// goldenRuns are the invocations CI and the docs run. Every scenario is
// deterministic in virtual time, so stdout and the exit code are pinned
// byte-for-byte.
var goldenRuns = []goldentest.Case{
	// CI gates.
	{Name: "topics-batch", Args: "-topics -batch 4 -flushdl 2us"},
	{Name: "failover", Args: "-failover"},
	{Name: "slowsub", Args: "-slowsub"},
	{Name: "shards", Args: "-shards"},
	{Name: "shards-hot", Args: "-shards -msgs 1000 -gap 5us"},
	{Name: "gateway", Args: "-gateway"},
	{Name: "gateway-hot", Args: "-gateway -msgs 256 -gwclients 8"},
	// README and package doc examples.
	{Name: "ping", Args: ""},
	{Name: "topics", Args: "-topics"},
	{Name: "topics-nodes3", Args: "-topics -nodes 3"},
	{Name: "mesh16", Args: "-nodes 16 -dst 15 -poll 2us"},
	{Name: "chaos", Args: "-chaos 0.05 -checksum -checks -msgs 2000"},
	{Name: "chaos-drop", Args: "-chaos-drop 0.1 -chaos-seed 7"},
	{Name: "priority", Args: "-policy priority -prio 7"},
	{Name: "slow-engine", Args: "-poll 4us -msgs 1000 -gap 5us"},
}

func TestGolden(t *testing.T) { goldentest.Test(t, "flipcsim", goldenRuns) }
