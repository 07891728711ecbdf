-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'mul_acc'
-- data path: 1 nodes (1 soft, 0 hard), 3 pipeline stages
-- netlist: 9 cells, 83 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    B0 : in signed(11 downto 0);
    acc_reg : in signed(31 downto 0);
    nd_s1 : in unsigned(0 downto 0);
    t6_out : out signed(31 downto 0)
  );
end entity mul_acc_dp_node1;

architecture rtl of mul_acc_dp_node1 is
  signal t4 : signed(23 downto 0);
  signal t4_s1 : signed(23 downto 0) := (others => '0');
  signal t5 : signed(23 downto 0);
  signal t5_s2 : signed(23 downto 0) := (others => '0');
  signal t6 : signed(31 downto 0);
begin
  t4 <= signed(resize(unsigned(resize(A0, 24)) * unsigned(resize(B0, 24)), 24));
  t5 <= signed(resize(unsigned(t4_s1) * resize(nd_s1, 24), 24));
  t6 <= acc_reg + resize(t5_s2, 32);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t4_s1 <= t4;
        t5_s2 <= t5;
      end if;
    end if;
  end process;
  t6_out <= t6;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(11 downto 0);
    B0 : in signed(11 downto 0);
    nd : in unsigned(0 downto 0);
    s_out : out signed(31 downto 0)
  );
end entity mul_acc_dp;

architecture rtl of mul_acc_dp is
  signal t6 : signed(31 downto 0);
  signal n4_valid : unsigned(0 downto 0);
  signal valid_s1 : unsigned(0 downto 0) := (others => '0');
  signal valid_s2 : unsigned(0 downto 0) := (others => '0');
  signal nd_s1 : unsigned(0 downto 0) := (others => '0');
  signal acc_reg : signed(31 downto 0) := (others => '0');
begin
  n4_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.mul_acc_dp_node1
    port map (clk => clk, ce => ce, A0 => A0, B0 => B0, acc_reg => acc_reg, nd_s1 => nd_s1, t6_out => t6);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        valid_s1 <= n4_valid;
        valid_s2 <= valid_s1;
        nd_s1 <= nd;
        if valid_s2 /= 0 then
          acc_reg <= t6;
        end if;
      end if;
    end if;
  end process;
  s_out <= t6;
end architecture rtl;
