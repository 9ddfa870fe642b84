// Tests of the public facade: the API a downstream user actually imports.
package blobseer_test

import (
	"bytes"
	"errors"
	"testing"

	blobseer "repro"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cluster, err := blobseer.Deploy(blobseer.DeployOptions{DataProviders: 4, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client, err := cluster.NewClient(blobseer.ClientOptions{MetaCacheNodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := client.CreateBlob(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := blob.Write([]byte("hello world"), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := blob.Append([]byte("!"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if _, err := blob.Read(v2, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world!" {
		t.Errorf("v2 = %q", buf)
	}
	short := make([]byte, 11)
	if _, err := blob.Read(v1, short, 0); err != nil {
		t.Fatal(err)
	}
	if string(short) != "hello world" {
		t.Errorf("v1 = %q", short)
	}
}

func TestPublicErrorsExported(t *testing.T) {
	if blobseer.ErrNotPublished == nil || blobseer.ErrFailedVersion == nil {
		t.Fatal("exported errors are nil")
	}
	if errors.Is(blobseer.ErrNotPublished, blobseer.ErrFailedVersion) {
		t.Fatal("exported errors not distinct")
	}
}

func TestPublicShapedDeploy(t *testing.T) {
	fabric := blobseer.NewFabric(blobseer.FabricConfig{BandwidthBps: 100e6})
	cluster, err := blobseer.Deploy(blobseer.DeployOptions{DataProviders: 2, Fabric: fabric})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(blobseer.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := client.CreateBlob(4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 64<<10)
	if _, err := blob.Write(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := blob.Read(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch over shaped fabric")
	}
	// The caller's fabric carries the provider traffic: with every provider
	// down on it, the same read fails.
	for _, addr := range cluster.ProviderAddrs() {
		fabric.SetDown(addr, true)
	}
	if _, err := blob.Read(0, got, 0); err == nil {
		t.Error("read succeeded with every provider down on the caller's fabric")
	}
}
