-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'alpha_blend'
-- data path: 1 nodes (1 soft, 0 hard), 3 pipeline stages
-- netlist: 13 cells, 64 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity alpha_blend_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    alpha : in unsigned(7 downto 0);
    B0_s1 : in unsigned(7 downto 0);
    t10_out : out unsigned(7 downto 0)
  );
end entity alpha_blend_dp_node1;

architecture rtl of alpha_blend_dp_node1 is
  signal t5 : unsigned(7 downto 0);
  signal t5_s1 : unsigned(7 downto 0) := (others => '0');
  signal t6 : unsigned(15 downto 0);
  signal t3 : unsigned(15 downto 0);
  signal t3_s1 : unsigned(15 downto 0) := (others => '0');
  signal t3_s2 : unsigned(15 downto 0) := (others => '0');
  signal t6_s2 : unsigned(15 downto 0) := (others => '0');
  signal t7 : unsigned(16 downto 0);
  signal t9 : unsigned(8 downto 0);
  signal t10 : unsigned(7 downto 0);
begin
  t5 <= to_unsigned(255, 8) - alpha;
  t6 <= resize(resize(t5_s1, 16) * resize(B0_s1, 16), 16);
  t3 <= resize(resize(alpha, 16) * resize(A0, 16), 16);
  t7 <= resize(t3_s2, 17) + resize(t6_s2, 17);
  t9 <= t7(16 downto 8);
  t10 <= t9(7 downto 0);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t5_s1 <= t5;
        t3_s1 <= t3;
        t3_s2 <= t3_s1;
        t6_s2 <= t6;
      end if;
    end if;
  end process;
  t10_out <= t10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity alpha_blend_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    B0 : in unsigned(7 downto 0);
    alpha : in unsigned(7 downto 0);
    C_o0 : out unsigned(7 downto 0)
  );
end entity alpha_blend_dp;

architecture rtl of alpha_blend_dp is
  signal t10 : unsigned(7 downto 0);
  signal B0_s1 : unsigned(7 downto 0) := (others => '0');
begin
  u_node1 : entity work.alpha_blend_dp_node1
    port map (clk => clk, ce => ce, A0 => A0, alpha => alpha, B0_s1 => B0_s1, t10_out => t10);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        B0_s1 <= B0;
      end if;
    end if;
  end process;
  C_o0 <= t10;
end architecture rtl;
